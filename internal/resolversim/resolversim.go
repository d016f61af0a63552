// Package resolversim implements the DNS server fleet decoys are sent to:
// recursive public resolvers (with caching, benign retries, anycast
// instances, and optional shadowing exhibitors at the destination), plus
// root and TLD authoritative servers that answer with referrals.
//
// Resolver-side shadowing is the dominant mode the paper measures for DNS
// decoys (99.7% of observers located at the destination, Table 2), so the
// exhibitor hook lives in the query path: after answering the client
// authentically, an instance may hand the query name to its
// observer.Exhibitor, which schedules unsolicited requests.
package resolversim

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/geodb"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/wire"
)

// DomainObserver receives domains sniffed from resolved queries —
// destination-side traffic shadowing. It is satisfied by
// *observer.Exhibitor; an interface here keeps the resolver fleet free of
// behavioral policy.
type DomainObserver interface {
	ObserveDomain(n *netsim.Network, domain string)
}

// QueryObserver is an optional refinement of DomainObserver: exhibitors
// whose behavior depends on the querying client (e.g. shadowing only a
// subset of client paths) receive the client address too. When an
// Instance's Exhibitor implements QueryObserver, it is preferred.
type QueryObserver interface {
	ObserveQuery(n *netsim.Network, domain string, client wire.Addr)
}

// Registry maps zones to their authoritative server addresses — the
// simulator's delegation tree. The honeypot registers the experiment zone
// here; recursion consults it.
type Registry struct {
	mu    sync.RWMutex
	zones map[string]wire.Addr
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{zones: make(map[string]wire.Addr)}
}

// Delegate registers auth as authoritative for zone and everything below.
func (r *Registry) Delegate(zone string, auth wire.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.zones[dnswire.Canonical(zone)] = auth
}

// AuthFor finds the most specific zone covering name.
func (r *Registry) AuthFor(name string) (zone string, auth wire.Addr, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	name = dnswire.Canonical(name)
	for n := name; ; {
		if a, found := r.zones[n]; found {
			return n, a, true
		}
		i := strings.IndexByte(n, '.')
		if i < 0 {
			break
		}
		n = n[i+1:]
	}
	return "", wire.Addr{}, false
}

// Zones lists registered zones, sorted.
func (r *Registry) Zones() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.zones))
	for z := range r.zones {
		out = append(out, z)
	}
	sort.Strings(out)
	return out
}

// Instance is one deployment site of an anycast resolver service. Client
// queries are routed to the instance whose Countries set contains the
// client's country; the Default instance takes the rest.
type Instance struct {
	Name      string
	Countries map[string]bool // client countries served; nil on the default
	// Egress hosts send upstream queries to authoritative servers. Several
	// egresses model operators that spread resolution over multiple
	// networks ("diversified flows of data", Figure 6 discussion).
	Egress []*netsim.Host
	// Exhibitor, when non-nil, receives every query name this instance
	// resolves — destination-side traffic shadowing. observer.Exhibitor
	// satisfies this interface.
	Exhibitor DomainObserver
	// ExtraRetries issues N duplicate upstream queries moments after the
	// original — the benign "implementation choice" retries that dominate
	// sub-minute DNS-DNS shadowing in Figure 4.
	ExtraRetries int
	// RetryProb is the per-query probability that the duplicates are
	// issued at all (1 when unset and ExtraRetries > 0 would retry every
	// query, which would make every path to every resolver problematic —
	// real resolvers retry situationally). Negative disables retries.
	RetryProb float64
	// RetryDelay spaces the duplicates; zero means 2s.
	RetryDelay time.Duration

	cache map[cacheKey]cacheEntry
	// swept is the cache size the last sweep left behind (see store).
	swept int
}

// minSweep is the cache size below which store never sweeps: small caches
// cost less to keep than to scan.
const minSweep = 1024

// store caches an upstream answer. Whenever the cache has doubled since
// the last sweep, it first drops every expired entry. A lookup never
// serves an expired entry, and virtual time never runs backwards, so an
// expired entry can never answer again and dropping it changes no reply.
// The doubling rule keeps the cache within twice its live entries (plus
// minSweep) at a cost amortized to O(1) per insert.
func (inst *Instance) store(now time.Time, key cacheKey, e cacheEntry) {
	if len(inst.cache) >= max(2*inst.swept, minSweep) {
		for k, old := range inst.cache {
			if !now.Before(old.expires) {
				delete(inst.cache, k)
			}
		}
		inst.swept = len(inst.cache)
	}
	inst.cache[key] = e
}

type cacheKey struct {
	name  string
	qtype uint16
}

type cacheEntry struct {
	answers []dnswire.RR
	rcode   uint8
	expires time.Time
}

// Service is one public resolver: a service address plus instances.
type Service struct {
	Name string
	Addr wire.Addr

	host      *netsim.Host
	geo       *geodb.DB
	registry  *Registry
	instances []*Instance
	def       *Instance

	mu      sync.Mutex
	stats   ServiceStats
	clients map[wire.Addr]bool

	// enc is encode scratch for replies and upstream queries: handlers run
	// on the world's single event-loop goroutine and every message is
	// copied into its packet (or HTTP envelope) before the next encode, so
	// one encoder per service is safe. Only the ExtraRetries duplicates,
	// which send later, keep their own copy of the query (see retry).
	//
	//shadowlint:eventloop
	enc dnswire.Encoder
	// upq is upstream-query scratch under the same single-goroutine
	// contract: the Message is serialized and sent before recurse returns,
	// so nothing retains it.
	//
	//shadowlint:eventloop
	upq dnswire.Message
	// dec and resp are decode and reply scratch under the same contract:
	// a handler decodes a client query (or, in a recursion's callback, the
	// upstream answer) into dec, reads what it needs, and encodes its reply
	// from resp before returning. Decoded names are fresh strings, so the
	// cache and exhibitors may keep them; answers are copied only when a
	// cache entry takes them.
	//
	//shadowlint:eventloop
	dec dnswire.Message
	//shadowlint:eventloop
	resp dnswire.Message
	// freeRecursions pools pending-recursion records; see recursion.
	//
	//shadowlint:eventloop
	freeRecursions []*recursion
}

// recursion is what a pending upstream resolution keeps of the client's
// query — ID, opcode, RD, the first question and the client — to answer it
// when the upstream reply or timeout arrives. A record is the Replier of
// its upstream request and is pooled per service, so a recursion
// allocates nothing in the steady state. The reply echoes only the first
// question; every query the simulation sends has exactly one.
type recursion struct {
	s      *Service
	inst   *Instance
	client wire.Endpoint
	id     uint16
	opcode uint8
	rd     bool
	doh    bool // answer over a DoH push instead of UDP
	q      dnswire.Question
}

// newRecursion takes a record from the pool (or builds one) and fills it
// from the decoded query q.
func (s *Service) newRecursion(inst *Instance, q *dnswire.Message, client wire.Endpoint, doh bool) *recursion {
	var r *recursion
	if k := len(s.freeRecursions); k > 0 {
		r = s.freeRecursions[k-1]
		s.freeRecursions = s.freeRecursions[:k-1]
	} else {
		r = &recursion{s: s}
	}
	r.inst, r.client, r.doh = inst, client, doh
	r.id, r.opcode, r.rd = q.Header.ID, q.Header.Opcode, q.Header.RD
	r.q = q.Questions[0]
	return r
}

// take copies the record out and returns it to the pool. Exactly one of
// Reply and Timeout runs per request, so this is its only release point.
func (r *recursion) take() recursion {
	p := *r
	r.inst, r.q = nil, dnswire.Question{}
	r.s.freeRecursions = append(r.s.freeRecursions, r)
	return p
}

// Reply implements netsim.Replier: cache the upstream answer, then answer
// the client.
func (r *recursion) Reply(n *netsim.Network, resp []byte) {
	p := r.take()
	s := p.s
	msg := &s.dec
	if err := dnswire.DecodeInto(msg, resp); err != nil {
		s.answer(n, &p, dnswire.RcodeServFail, nil)
		return
	}
	ttl := time.Hour
	if len(msg.Answers) > 0 {
		ttl = time.Duration(msg.Answers[0].TTL) * time.Second
	}
	answers := slices.Clone(msg.Answers)
	p.inst.store(n.Now(), cacheKey{p.q.Name, p.q.Type}, cacheEntry{
		answers: answers, rcode: msg.Header.Rcode, expires: n.Now().Add(ttl),
	})
	s.answer(n, &p, msg.Header.Rcode, answers)
}

// Timeout implements netsim.Replier: answer SERVFAIL when no upstream
// reply came. Only the UDP path counts it as a ServFail.
func (r *recursion) Timeout(n *netsim.Network) {
	p := r.take()
	if !p.doh {
		p.s.mu.Lock()
		p.s.stats.ServFails++
		p.s.mu.Unlock()
	}
	p.s.answer(n, &p, dnswire.RcodeServFail, nil)
}

// answer encodes the reply to a pending recursion's client and sends it.
func (s *Service) answer(n *netsim.Network, p *recursion, rcode uint8, answers []dnswire.RR) {
	q := dnswire.Message{
		Header:    dnswire.Header{ID: p.id, Opcode: p.opcode, RD: p.rd},
		Questions: []dnswire.Question{p.q},
	}
	if raw := s.respond(&q, rcode, answers); raw != nil {
		s.send(n, p.client, raw, p.doh)
	}
}

// send delivers an encoded reply outside a handler's return: as a UDP
// datagram from port 53, or for DoH wrapped in its HTTP envelope as a TCP
// data packet from port 443.
func (s *Service) send(n *netsim.Network, client wire.Endpoint, raw []byte, doh bool) {
	if doh {
		n.InjectTCP(wire.Endpoint{Addr: s.Addr, Port: 443}, client, 64, 0,
			wire.TCPPsh|wire.TCPAck|wire.TCPFin, 1, 1, dohResponse(raw))
		return
	}
	n.InjectUDP(wire.Endpoint{Addr: s.Addr, Port: 53}, client, 64, 0, raw)
}

// respond encodes a reply to the decoded query q, echoing every question,
// into the service's scratch. It returns nil if the reply does not encode.
func (s *Service) respond(q *dnswire.Message, rcode uint8, answers []dnswire.RR) []byte {
	dnswire.ResponseInto(&s.resp, q, rcode)
	s.resp.Answers = append(s.resp.Answers, answers...)
	raw, err := s.resp.AppendEncode(&s.enc)
	if err != nil {
		return nil
	}
	return raw
}

// ServiceStats counts resolver activity.
type ServiceStats struct {
	Queries       int64
	DoHQueries    int64
	CacheHits     int64
	Upstream      int64
	ServFails     int64
	RetriesIssued int64
}

// NewService creates a resolver service listening on addr (UDP/53). The
// first instance added becomes the default.
func NewService(n *netsim.Network, name string, addr wire.Addr, registry *Registry, geo *geodb.DB) *Service {
	s := &Service{Name: name, Addr: addr, geo: geo, registry: registry, clients: make(map[wire.Addr]bool)}
	s.host = netsim.NewHost(n, addr)
	s.host.ServeUDP(53, s.handleQuery)
	return s
}

// EnableDoH serves DNS-over-HTTPS on the resolver's port 443: a POST to
// /dns-query whose body is a wire-format DNS message (RFC 8484). The
// transport stands in for the encrypted channel — on-path observers
// parsing port-443 traffic as TLS extract nothing, and the HTTP envelope
// names the resolver, not the query — while the destination decodes the
// message and (if shadowing) retains the name, exactly the limitation the
// paper's Discussion points out for encrypted DNS.
func (s *Service) EnableDoH() {
	s.host.ServeTCP(443, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		req, err := httpwire.ParseRequest(payload)
		if err != nil || req.Method != "POST" || req.Path != "/dns-query" {
			return httpwire.NewResponse(400, "bad DoH request").Encode()
		}
		s.mu.Lock()
		s.stats.DoHQueries++
		s.mu.Unlock()
		// The inner DNS exchange reuses the UDP handler; the response (when
		// answered synchronously from cache) wraps back into HTTP. For
		// recursion, the client is answered over a direct DoH push.
		resp := s.query(n, from, req.Body, true)
		if resp == nil {
			return nil
		}
		return dohResponse(resp)
	})
}

// dohResponse wraps a DNS message in the RFC 8484 HTTP envelope.
func dohResponse(dnsMsg []byte) []byte {
	resp := httpwire.NewResponse(200, string(dnsMsg))
	resp.Headers["content-type"] = "application/dns-message"
	return resp.Encode()
}

// AddInstance attaches a deployment site. Instances added first win country
// ties; an instance with nil Countries becomes the default.
func (s *Service) AddInstance(inst *Instance) {
	inst.cache = make(map[cacheKey]cacheEntry)
	if inst.RetryDelay == 0 {
		inst.RetryDelay = 2 * time.Second
	}
	s.instances = append(s.instances, inst)
	if inst.Countries == nil && s.def == nil {
		s.def = inst
	}
}

// Stats snapshots the counters.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// DistinctClients reports how many distinct source addresses this resolver
// has seen — the operator's view of message *origin*. Oblivious transports
// collapse it to the proxy's address set, which is exactly the privacy
// property ODoH buys (ground truth for the mitigation study).
func (s *Service) DistinctClients() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clients)
}

// instanceFor picks the anycast site serving a client address.
func (s *Service) instanceFor(client wire.Addr) *Instance {
	country := s.geo.Country(client)
	for _, inst := range s.instances {
		if inst.Countries != nil && inst.Countries[country] {
			return inst
		}
	}
	return s.def
}

// handleQuery is the UDP/53 service entry point.
func (s *Service) handleQuery(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
	return s.query(n, from, payload, false)
}

// query answers one client query, over UDP or (doh) wrapped for DoH. A
// cache hit or a query no instance serves is answered by the returned
// bytes, which alias the service's encode scratch; a recursion returns nil
// and answers later.
func (s *Service) query(n *netsim.Network, from wire.Endpoint, payload []byte, doh bool) []byte {
	q := &s.dec
	if err := dnswire.DecodeInto(q, payload); err != nil || q.Header.QR || len(q.Questions) == 0 {
		return nil
	}
	s.mu.Lock()
	s.stats.Queries++
	s.clients[from.Addr] = true
	s.mu.Unlock()

	inst := s.instanceFor(from.Addr)
	if inst == nil {
		return s.respond(q, dnswire.RcodeServFail, nil)
	}

	// Destination-side shadowing: the instance records the query name
	// regardless of how resolution proceeds.
	if inst.Exhibitor != nil {
		if qo, ok := inst.Exhibitor.(QueryObserver); ok {
			qo.ObserveQuery(n, q.QName(), from.Addr)
		} else {
			inst.Exhibitor.ObserveDomain(n, q.QName())
		}
	}

	if entry, ok := inst.cache[cacheKey{q.QName(), q.QType()}]; ok && n.Now().Before(entry.expires) {
		s.mu.Lock()
		s.stats.CacheHits++
		s.mu.Unlock()
		return s.respond(q, entry.rcode, entry.answers)
	}

	// Recurse asynchronously: reply to the client when the authoritative
	// answer returns. Returning nil here suppresses the synchronous reply.
	s.recurse(n, inst, q, from, doh)
	return nil
}

// recurse sends q upstream on behalf of client. Over UDP, the instance may
// follow it with benign duplicates; DoH recursions never retry.
func (s *Service) recurse(n *netsim.Network, inst *Instance, q *dnswire.Message, client wire.Endpoint, doh bool) {
	qname := q.QName()
	_, auth, ok := s.registry.AuthFor(qname)
	if !ok || len(inst.Egress) == 0 {
		s.mu.Lock()
		s.stats.ServFails++
		s.mu.Unlock()
		if raw := s.respond(q, dnswire.RcodeServFail, nil); raw != nil {
			s.send(n, client, raw, doh)
		}
		return
	}
	s.mu.Lock()
	s.stats.Upstream++
	s.mu.Unlock()

	egress := inst.Egress[int(q.Header.ID)%len(inst.Egress)]
	upstream := &s.upq
	dnswire.QueryInto(upstream, q.Header.ID, qname, q.QType())
	upstream.Header.RD = false
	upPayload, err := upstream.AppendEncode(&s.enc)
	if err != nil {
		return
	}
	r := s.newRecursion(inst, q, client, doh)
	egress.SendUDPRequest(n, wire.Endpoint{Addr: auth, Port: 53}, upPayload, netsim.UDPRequestOpts{
		Timeout: 3 * time.Second,
		Replier: r,
	})
	if doh {
		return
	}

	// Benign duplicate upstream queries (implementation choice). These are
	// the packets APNIC saw as "DNS zombies" within the first minute.
	if inst.RetryProb < 0 {
		return
	}
	if inst.RetryProb > 0 && inst.RetryProb < 1 {
		// Deterministic per-query coin derived from the query name, so
		// repeated runs are reproducible.
		h := uint32(2166136261)
		for i := 0; i < len(qname); i++ {
			h = (h ^ uint32(qname[i])) * 16777619
		}
		if float64(h%10000) >= inst.RetryProb*10000 {
			return
		}
	}
	if inst.ExtraRetries <= 0 {
		return
	}
	// upPayload aliases s.enc, which the next encode overwrites; the
	// duplicates send later, so they share one copy of the query.
	dup := &retry{s: s, egress: egress, auth: auth, query: append([]byte(nil), upPayload...)}
	for i := 0; i < inst.ExtraRetries; i++ {
		n.ScheduleAction(inst.RetryDelay*time.Duration(i+1), dup, 0)
	}
}

// retry is the Action behind a recursion's benign duplicate upstream
// queries: each of its queue entries sends the same query once more.
type retry struct {
	s      *Service
	egress *netsim.Host
	auth   wire.Addr
	query  []byte
}

// Fire implements netsim.Action.
func (r *retry) Fire(n *netsim.Network, _ int) {
	r.s.mu.Lock()
	r.s.stats.RetriesIssued++
	r.s.mu.Unlock()
	r.egress.SendUDPRequest(n, wire.Endpoint{Addr: r.auth, Port: 53}, r.query, netsim.UDPRequestOpts{
		Timeout: 3 * time.Second,
	})
}

// ReferralServer is a root or TLD authoritative server: it answers every
// query with a referral (authority NS record) and never shadows. Decoys
// sent directly to roots/TLDs get authentic responses and, per the paper,
// trigger nothing.
type ReferralServer struct {
	Name string
	Zone string // zone it speaks for ("" = root)

	mu      sync.Mutex
	queries int64

	// enc, dec and resp are encode, decode and reply scratch; see
	// Service.enc for why this is safe.
	//
	//shadowlint:eventloop
	enc dnswire.Encoder
	//shadowlint:eventloop
	dec dnswire.Message
	//shadowlint:eventloop
	resp dnswire.Message
}

// NewReferralServer registers a referral server on addr.
func NewReferralServer(n *netsim.Network, name, zone string, addr wire.Addr) *ReferralServer {
	rs := &ReferralServer{Name: name, Zone: zone}
	host := netsim.NewHost(n, addr)
	host.ServeUDP(53, rs.handle)
	return rs
}

// Queries reports how many queries arrived.
func (rs *ReferralServer) Queries() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.queries
}

func (rs *ReferralServer) handle(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
	q := &rs.dec
	if err := dnswire.DecodeInto(q, payload); err != nil || q.Header.QR || len(q.Questions) == 0 {
		return nil
	}
	rs.mu.Lock()
	rs.queries++
	rs.mu.Unlock()
	resp := &rs.resp
	dnswire.ResponseInto(resp, q, dnswire.RcodeNoError)
	// Refer one level down from our zone toward the query name.
	child := referralChild(q.QName(), rs.Zone)
	resp.Authority = append(resp.Authority, dnswire.RR{
		Name: child, Type: dnswire.TypeNS, TTL: 172800, Target: "ns1." + child,
	})
	raw, err := resp.AppendEncode(&rs.enc)
	if err != nil {
		return nil
	}
	return raw
}

// referralChild computes the zone one label below zone on the way to name
// (e.g. name "a.b.example.com", zone "com" -> "example.com").
func referralChild(name, zone string) string {
	name, zone = dnswire.Canonical(name), dnswire.Canonical(zone)
	if !dnswire.IsSubdomain(name, zone) || name == zone {
		return name
	}
	suffixLen := len(zone)
	head := name
	if suffixLen > 0 {
		head = name[:len(name)-suffixLen-1]
	}
	if i := strings.LastIndexByte(head, '.'); i >= 0 {
		head = head[i+1:]
	}
	if zone == "" {
		return head
	}
	return head + "." + zone
}
