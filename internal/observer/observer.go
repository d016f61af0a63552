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
	// dec is reply-decode scratch under the same contract: resolve's reply
	// callback reads only the first A record's address out of it before
	// returning.
	//
	//shadowlint:eventloop
	dec dnswire.Message
	// launchBuf is ObserveDomain's scratch for the probes one observation
	// schedules; each Schedule closure captures its element by value, so
	// the backing array is reusable on the next observation.
	//
	//shadowlint:eventloop
	launchBuf []launch
}

// launch is one scheduled probe drawn from a profile rule.
type launch struct {
	kind   ProbeKind
	delay  time.Duration
	origin Origin
	path   string
}

// SetKindOrigins overrides the origin pool for one probe kind.
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

	launches := e.launchBuf[:0]
	for _, rule := range e.Rules {
		if rule.Prob < 1 && e.rng.Float64() >= rule.Prob {
			continue
		}
		count := rule.Count.Sample(e.rng)
		for i := 0; i < count; i++ {
			pool := e.originsFor(rule.Kind)
			launches = append(launches, launch{
				kind:   rule.Kind,
				delay:  rule.Delay.Sample(e.rng),
				origin: pool[e.rng.Intn(len(pool))],
				path:   intel.EnumerationPaths[e.rng.Intn(len(intel.EnumerationPaths))],
			})
		}
	}
	e.stats.ProbesLaunched += int64(len(launches))
	e.launchBuf = launches
	e.mu.Unlock()

	for _, l := range launches {
		l := l
		n.Schedule(l.delay, func() {
			e.launchProbe(n, l.origin, l.kind, domain, l.path)
		})
	}
}

// launchProbe performs one unsolicited request from origin.
func (e *Exhibitor) launchProbe(n *netsim.Network, origin Origin, kind ProbeKind, domain, path string) {
	switch kind {
	case ProbeDNS:
		e.resolve(n, origin, domain, nil)
	case ProbeHTTP:
		e.resolve(n, origin, domain, func(addr wire.Addr) {
			req := httpwire.EncodeGET(domain, path)
			origin.Host.SendTCPRequest(n, wire.Endpoint{Addr: addr, Port: 80}, req, netsim.TCPRequestOpts{})
		})
	case ProbeHTTPS:
		e.resolve(n, origin, domain, func(addr wire.Addr) {
			var random [32]byte
			e.mu.Lock()
			e.rng.Read(random[:])
			e.mu.Unlock()
			payload, err := tlswire.EncodeClientHello(domain, random)
			if err != nil {
				return
			}
			origin.Host.SendTCPRequest(n, wire.Endpoint{Addr: addr, Port: 443}, payload, netsim.TCPRequestOpts{})
		})
	}
}

// resolve queries the origin's resolver for domain; onA (if non-nil) runs
// with the first A record of the answer.
func (e *Exhibitor) resolve(n *netsim.Network, origin Origin, domain string, onA func(wire.Addr)) {
	e.mu.Lock()
	qid := uint16(e.rng.Intn(0xFFFF) + 1)
	e.mu.Unlock()
	dnswire.QueryInto(&e.q, qid, domain, dnswire.TypeA)
	payload, err := e.q.AppendEncode(&e.enc)
	if err != nil {
		return
	}
	origin.Host.SendUDPRequest(n, wire.Endpoint{Addr: origin.Resolver, Port: 53}, payload, netsim.UDPRequestOpts{
		OnReply: func(n *netsim.Network, resp []byte) {
			if onA == nil {
				return
			}
			if err := dnswire.DecodeInto(&e.dec, resp); err != nil {
				return
			}
			for _, a := range e.dec.Answers {
				if a.Type == dnswire.TypeA {
					onA(a.Addr)
					return
				}
			}
		},
	})
}

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
