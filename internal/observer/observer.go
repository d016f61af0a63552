// Package observer implements traffic-shadowing exhibitors: the parties
// that silently record domains from passing traffic and later emit
// unsolicited requests bearing them.
//
// Two deployment modes share one behavior engine (Exhibitor):
//
//   - Device — an on-path DPI tap attached to a netsim.Router, sniffing
//     QNAME/Host/SNI from packets on the wire (the HTTP/TLS observers of
//     Section 5.2, found mid-path via Phase II tracerouting);
//   - resolver-side exhibitors — public DNS resolvers that retain query
//     names at the destination (the dominant DNS mode, 99.7% of problematic
//     paths in Table 2); internal/resolversim calls into an Exhibitor from
//     its query handler.
//
// A Device sniffs only what it could record. It checks the destination
// port's protocol against Watch, the destination against DstFilter and the
// source's path against PathFraction before it parses the payload, so most
// packets crossing a tapped router cost no parse and no allocation. The
// one exception is a source that SetSourceClassifier marks as a
// measurement client: ClientExtractions counts those on every path, so a
// client packet is parsed even on an unsampled path (and still not
// recorded).
//
// Exhibitors are ground truth: the measurement pipeline never reads their
// state. Tests verify the pipeline *recovers* their placement and timing
// from honeypot and traceroute evidence alone.
package observer

import (
	"math/rand"
	"sync"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/intel"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/tlswire"
	"shadowmeter/internal/wire"
)

// ProbeKind is the protocol of an unsolicited probe.
type ProbeKind int

// Probe kinds.
const (
	ProbeDNS ProbeKind = iota
	ProbeHTTP
	ProbeHTTPS
)

// String names the probe kind.
func (k ProbeKind) String() string {
	switch k {
	case ProbeDNS:
		return "DNS"
	case ProbeHTTP:
		return "HTTP"
	case ProbeHTTPS:
		return "HTTPS"
	default:
		return "?"
	}
}

// DelayRange is one weighted component of a delay mixture.
type DelayRange struct {
	Min, Max time.Duration
	Weight   int
}

// DelayDist is a weighted mixture of uniform delay ranges. The paper's
// Figure 4/7 CDFs are bimodal (seconds vs. days); a mixture reproduces that
// shape directly.
type DelayDist struct {
	Ranges []DelayRange
}

// Sample draws one delay.
func (d DelayDist) Sample(rng *rand.Rand) time.Duration {
	total := 0
	for _, r := range d.Ranges {
		total += r.Weight
	}
	if total == 0 {
		return 0
	}
	pick := rng.Intn(total)
	for _, r := range d.Ranges {
		pick -= r.Weight
		if pick < 0 {
			span := r.Max - r.Min
			if span <= 0 {
				return r.Min
			}
			return r.Min + time.Duration(rng.Int63n(int64(span)))
		}
	}
	return 0
}

// CountDist draws how many probes one observation triggers.
type CountDist struct {
	Min, Max int
}

// Sample draws a count in [Min, Max].
func (c CountDist) Sample(rng *rand.Rand) int {
	if c.Max <= c.Min {
		return c.Min
	}
	return c.Min + rng.Intn(c.Max-c.Min+1)
}

// ProbeRule schedules probes of one kind after an observation.
type ProbeRule struct {
	Kind  ProbeKind
	Prob  float64 // probability the rule fires for an observed domain
	Delay DelayDist
	Count CountDist
}

// Profile is the configured behavior of an exhibitor.
type Profile struct {
	Name string
	// Watch lists the decoy protocols this exhibitor sniffs (Device mode
	// only; resolver-side exhibitors are fed DNS names directly).
	Watch map[decoy.Protocol]bool
	// SampleRate is the fraction of observed domains recorded (1 = all).
	SampleRate float64
	// OncePerDomain suppresses re-observation of a domain already recorded
	// ("newly-observed domain" monitors).
	OncePerDomain bool
	// Rules are the probe schedules applied to each recorded domain.
	Rules []ProbeRule
	// PathFraction (Device mode) restricts the tap to a deterministic
	// subset of source addresses: a DPI box monitors specific ingress
	// links, so a path is either consistently shadowed or consistently
	// clean — the property Phase II tracerouting relies on. 0 or 1 means
	// all paths.
	PathFraction float64
	// PathSalt decorrelates path sampling between devices.
	PathSalt uint32
	// DstFilter (Device mode), when non-nil, restricts observation to
	// packets toward these destination addresses — e.g. DNS-tracking DPI
	// that only monitors traffic bound for well-known public resolvers.
	DstFilter map[wire.Addr]bool
}

// Origin is one machine an exhibitor launches unsolicited probes from. The
// set of origins — their networks and resolver choices — is what the
// paper's Figure 6 origin-AS analysis ultimately measures.
type Origin struct {
	Host *netsim.Host
	// Resolver is the recursive resolver this origin queries to look up
	// observed domains (e.g. Google Public DNS, giving AS15169 prominence
	// in Figure 6).
	Resolver wire.Addr
}

// Exhibitor is the shared behavior engine.
type Exhibitor struct {
	Profile
	origins []Origin
	// kindOrigins optionally overrides the origin pool per probe kind —
	// e.g. DNS lookups routed through Google Public DNS while HTTP probes
	// come from a security vendor's proxy fleet (the mix behind Figure 6's
	// origin-AS and blocklist findings).
	kindOrigins map[ProbeKind][]Origin
	rng         *rand.Rand

	mu    sync.Mutex
	seen  map[string]bool
	stats Stats

	// enc is probe-encode scratch: probes launch on the world's single
	// event-loop goroutine and SendUDPRequest copies the payload into the
	// packet synchronously, so one encoder per exhibitor is safe.
	//
	//shadowlint:eventloop
	enc dnswire.Encoder
	// q is the probe query the encoder serializes, under the same
	// contract.
	//
	//shadowlint:eventloop
	q dnswire.Message
	// free holds the released pending records, which slabs of slabSize
	// back; slabs counts the slabs made. Records are taken and released on
	// the event loop only.
	//
	//shadowlint:eventloop
	free []*pending
	//shadowlint:eventloop
	slabs int
}

// slabSize is the number of pending records one allocation makes.
const slabSize = 256

// pending is one probe an observation schedules: the Action its queue
// entry fires after the drawn delay, and then the Replier of the probe's
// DNS lookup. A retained domain is kept only here, so a record must be
// small and cheap: it holds its origin and HTTP path as indices into the
// kind's origin pool and intel.EnumerationPaths (32 bytes in all), and
// records are carved from per-exhibitor slabs, since many outlive a small
// trial's few launches and a plain pool would still allocate one per
// launch. A record returns to the free list exactly once, when its lookup
// is answered or times out (or at once if the lookup cannot be encoded);
// the network never calls both Reply and Timeout, and a reply after the
// timeout reaches no record.
type pending struct {
	e      *Exhibitor
	domain string
	origin uint32 // index into e.originsFor(kind)
	kind   uint8  // ProbeKind
	path   uint16 // index into intel.EnumerationPaths
}

// originOf returns the record's origin.
func (p *pending) originOf() Origin {
	return p.e.originsFor(ProbeKind(p.kind))[p.origin]
}

// SetKindOrigins overrides the origin pool for one probe kind. Pools are
// set up before the exhibitor observes anything: a pending probe keeps its
// origin's index in the pool.
func (e *Exhibitor) SetKindOrigins(kind ProbeKind, origins []Origin) {
	if e.kindOrigins == nil {
		e.kindOrigins = make(map[ProbeKind][]Origin)
	}
	e.kindOrigins[kind] = origins
}

// originsFor returns the pool for a probe kind.
func (e *Exhibitor) originsFor(kind ProbeKind) []Origin {
	if o, ok := e.kindOrigins[kind]; ok && len(o) > 0 {
		return o
	}
	return e.origins
}

// Stats counts exhibitor activity (ground truth, for tests only).
type Stats struct {
	Observed       int64 // domains recorded
	ProbesLaunched int64
	// ClientExtractions counts successful domain extractions from packets
	// whose source the device's classifier marks as a measurement client —
	// i.e. what DPI pulled out of decoy traffic specifically, regardless of
	// path sampling. The mitigation study's headline number.
	ClientExtractions int64
}

// NewExhibitor builds an exhibitor with a deterministic RNG seed.
func NewExhibitor(p Profile, origins []Origin, seed int64) *Exhibitor {
	if p.SampleRate == 0 {
		p.SampleRate = 1
	}
	return &Exhibitor{
		Profile: p,
		origins: origins,
		rng:     rand.New(rand.NewSource(seed)),
		seen:    make(map[string]bool),
	}
}

// Stats snapshots the counters.
func (e *Exhibitor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ObserveDomain records one sniffed domain and schedules the profile's
// probes on the network's virtual clock.
func (e *Exhibitor) ObserveDomain(n *netsim.Network, domain string) {
	domain = dnswire.Canonical(domain)
	if domain == "" || len(e.origins) == 0 {
		return
	}
	e.mu.Lock()
	if e.OncePerDomain && e.seen[domain] {
		e.mu.Unlock()
		return
	}
	if e.SampleRate < 1 && e.rng.Float64() >= e.SampleRate {
		e.mu.Unlock()
		return
	}
	if e.OncePerDomain {
		e.seen[domain] = true
	}
	e.stats.Observed++

	for _, rule := range e.Rules {
		if rule.Prob < 1 && e.rng.Float64() >= rule.Prob {
			continue
		}
		count := rule.Count.Sample(e.rng)
		for i := 0; i < count; i++ {
			pool := e.originsFor(rule.Kind)
			delay := rule.Delay.Sample(e.rng)
			p := e.newPending()
			p.kind = uint8(rule.Kind)
			p.origin = uint32(e.rng.Intn(len(pool)))
			p.domain = domain
			p.path = uint16(e.rng.Intn(len(intel.EnumerationPaths)))
			n.ScheduleAction(delay, p, 0)
			e.stats.ProbesLaunched++
		}
	}
	e.mu.Unlock()
}

// newPending takes a record from the free list, carving a new slab when
// it is empty.
func (e *Exhibitor) newPending() *pending {
	if len(e.free) == 0 {
		slab := make([]pending, slabSize)
		for i := range slab {
			slab[i].e = e
			e.free = append(e.free, &slab[i])
		}
		e.slabs++
	}
	p := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	return p
}

// release drops a record's domain and returns it to the free list.
func (e *Exhibitor) release(p *pending) {
	p.domain = ""
	e.free = append(e.free, p)
}

// Fire implements netsim.Action: the probe launches. Every kind starts
// by resolving the domain through the origin's resolver; the record
// waits as the lookup's Replier.
func (p *pending) Fire(n *netsim.Network, _ int) {
	e := p.e
	e.mu.Lock()
	qid := uint16(e.rng.Intn(0xFFFF) + 1)
	e.mu.Unlock()
	dnswire.QueryInto(&e.q, qid, p.domain, dnswire.TypeA)
	payload, err := e.q.AppendEncode(&e.enc)
	if err != nil {
		e.release(p)
		return
	}
	origin := p.originOf()
	origin.Host.SendUDPRequest(n, wire.Endpoint{Addr: origin.Resolver, Port: 53}, payload, netsim.UDPRequestOpts{
		Replier: p,
	})
}

// Reply implements netsim.Replier. A DNS probe is done once answered; an
// HTTP or HTTPS probe then requests the domain from the first A record
// of the answer.
func (p *pending) Reply(n *netsim.Network, resp []byte) {
	e, kind := p.e, ProbeKind(p.kind)
	if kind == ProbeDNS {
		e.release(p)
		return
	}
	origin, domain, path := p.originOf(), p.domain, intel.EnumerationPaths[p.path]
	e.release(p)
	addr, ok := dnswire.FirstA(resp)
	if !ok {
		return
	}
	switch kind {
	case ProbeHTTP:
		req := httpwire.EncodeGET(domain, path)
		origin.Host.SendTCPRequest(n, wire.Endpoint{Addr: addr, Port: 80}, req, netsim.TCPRequestOpts{})
	case ProbeHTTPS:
		var random [32]byte
		e.mu.Lock()
		e.rng.Read(random[:])
		e.mu.Unlock()
		payload, err := tlswire.EncodeClientHello(domain, random)
		if err != nil {
			return
		}
		origin.Host.SendTCPRequest(n, wire.Endpoint{Addr: addr, Port: 443}, payload, netsim.TCPRequestOpts{})
	}
}

// Timeout implements netsim.Replier: an unanswered lookup ends the probe.
func (p *pending) Timeout(*netsim.Network) { p.e.release(p) }

// PathSampledExhibitor wraps an Exhibitor so that only a deterministic
// fraction of client paths is shadowed: whether a client's queries are
// recorded depends on a hash of the client address, not on chance per
// query. This models resolver operators that retain data for some ingress
// paths but not others — the reason Figure 3 shows ~70% (not 100%) of VP
// paths problematic toward heavy shadowers like Yandex.
type PathSampledExhibitor struct {
	Inner *Exhibitor
	// Fraction in [0,1]: the share of client addresses shadowed.
	Fraction float64
	// Salt decorrelates sampling across deployments.
	Salt uint32
}

// ObserveQuery implements resolversim.QueryObserver.
func (p *PathSampledExhibitor) ObserveQuery(n *netsim.Network, domain string, client wire.Addr) {
	if !p.sampled(client) {
		return
	}
	p.Inner.ObserveDomain(n, domain)
}

// ObserveDomain implements the plain interface. No client is known, so
// every domain goes to Inner without path sampling.
func (p *PathSampledExhibitor) ObserveDomain(n *netsim.Network, domain string) {
	p.Inner.ObserveDomain(n, domain)
}

func (p *PathSampledExhibitor) sampled(client wire.Addr) bool {
	if p.Fraction >= 1 {
		return true
	}
	if p.Fraction <= 0 {
		return false
	}
	h := client.Uint32()*2654435761 + p.Salt*40503
	h ^= h >> 16
	h *= 2246822519
	h ^= h >> 13
	return float64(h%10000) < p.Fraction*10000
}

// Device is an Exhibitor deployed as an on-path DPI tap.
type Device struct {
	*Exhibitor
	router      *netsim.Router
	classifySrc func(wire.Addr) bool
}

// SetSourceClassifier marks which source addresses count as measurement
// clients for the ClientExtractions statistic.
func (d *Device) SetSourceClassifier(fn func(wire.Addr) bool) { d.classifySrc = fn }

// NewDevice attaches a new exhibitor tap to router.
func NewDevice(p Profile, origins []Origin, seed int64, router *netsim.Router) *Device {
	d := &Device{Exhibitor: NewExhibitor(p, origins, seed), router: router}
	router.AttachTap(d)
	return d
}

// Router returns the router the device taps.
func (d *Device) Router() *netsim.Router { return d.router }

// Observe implements netsim.Tap. It applies the profile's filters in order
// of cost and parses the payload only for a packet the device could record:
//
//  1. the destination port names a decoy protocol (53 DNS, 80 HTTP, 443
//     TLS) that Watch includes, and DstFilter includes the destination;
//  2. PathFraction samples the source's path — unless the classifier marks
//     the source as a measurement client, whose packets ClientExtractions
//     counts on every path;
//  3. the payload yields a domain (QNAME, Host or SNI), which a sampled
//     path hands to the behavior engine.
func (d *Device) Observe(n *netsim.Network, at *netsim.Router, pkt *wire.Packet) {
	var dstPort uint16
	var payload []byte
	switch {
	case pkt.UDP != nil:
		dstPort, payload = pkt.UDP.DstPort, pkt.UDP.Payload()
	case pkt.TCP != nil:
		dstPort, payload = pkt.TCP.DstPort, pkt.TCP.Payload()
	default:
		return
	}
	proto, ok := decoy.PortProtocol(dstPort)
	if !ok || len(payload) == 0 {
		return
	}
	if d.Watch != nil && !d.Watch[proto] {
		return
	}
	if d.DstFilter != nil && !d.DstFilter[pkt.IP.Dst] {
		return
	}
	sampled := true
	if d.PathFraction > 0 && d.PathFraction < 1 {
		ps := PathSampledExhibitor{Fraction: d.PathFraction, Salt: d.PathSalt}
		sampled = ps.sampled(pkt.IP.Src)
	}
	client := d.classifySrc != nil && d.classifySrc(pkt.IP.Src)
	if !sampled && !client {
		return
	}
	domain, ok := decoy.ExtractDomain(proto, payload)
	if !ok {
		return
	}
	if client {
		d.mu.Lock()
		d.stats.ClientExtractions++
		d.mu.Unlock()
	}
	if sampled {
		d.ObserveDomain(n, domain)
	}
}
