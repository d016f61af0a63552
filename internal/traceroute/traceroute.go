// Package traceroute implements Phase II of the methodology: locating
// on-path traffic observers hop by hop. From the VP of a problematic path
// it re-sends decoys with initial TTL = 1..MaxTTL; each TTL value yields a
// fresh identifier (the TTL is baked into the encoded label), so honeypot
// captures can later be mapped to the exact probe that leaked. ICMP Time
// Exceeded responses reveal router addresses per hop.
//
// The package produces Sweep records; deciding which hop hosts the
// observer (minimum leaking TTL) and normalizing hop positions to the
// paper's 1..10 scale happens in Analyze, consuming honeypot evidence.
package traceroute

import (
	"fmt"
	"sync"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/vantage"
	"shadowmeter/internal/wire"
)

// Probe is one TTL-limited decoy emission within a sweep.
type Probe struct {
	TTL    uint8
	Label  string
	Domain string
	SentAt time.Time
}

// Sweep is the record of one hop-by-hop traceroute over a (VP, destination,
// protocol) path.
type Sweep struct {
	VP    *vantage.VP
	Dst   wire.Endpoint
	Proto decoy.Protocol

	mu       sync.Mutex
	Probes   map[uint8]*Probe    // by TTL
	HopAddrs map[uint8]wire.Addr // router addresses from ICMP, by hop
	// DestReplied records TTLs whose probe was answered by the destination
	// (DNS sweeps only — raw TCP probes are intentionally handshake-less).
	DestReplied map[uint8]bool

	serial uint16
	e      *Engine
	// slots holds one probe per TTL, made with the sweep: Probes[ttl]
	// points at slots[ttl-1].Probe once that probe is sent.
	slots []probeSlot
}

// probeSlot is one TTL's probe record. It is also the Replier of a DNS
// probe's request, so the reply that gives direct destination-distance
// evidence needs no callback of its own. Each slot sends one request.
type probeSlot struct {
	Probe
	s *Sweep
}

// DestDistance infers the destination's hop distance: one past the farthest
// hop that returned ICMP Time Exceeded, or the smallest TTL whose probe the
// destination answered, whichever evidence is available. Returns 0 when the
// sweep saw nothing at all.
func (s *Sweep) DestDistance() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	maxHop := 0
	for hop := range s.HopAddrs {
		if int(hop) > maxHop {
			maxHop = int(hop)
		}
	}
	minReply := 0
	for ttl := range s.DestReplied {
		if minReply == 0 || int(ttl) < minReply {
			minReply = int(ttl)
		}
	}
	switch {
	case minReply > 0 && maxHop > 0:
		if minReply <= maxHop {
			return minReply
		}
		return maxHop + 1
	case minReply > 0:
		return minReply
	case maxHop > 0:
		return maxHop + 1
	default:
		return 0
	}
}

// HopAddr returns the router address revealed at a hop (zero when the
// router was ICMP-silent).
func (s *Sweep) HopAddr(hop int) wire.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.HopAddrs[uint8(hop)]
}

// Labels returns label -> TTL for every probe of the sweep.
func (s *Sweep) Labels() map[string]uint8 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint8, len(s.Probes))
	for ttl, p := range s.Probes {
		out[p.Label] = ttl
	}
	return out
}

// Engine schedules sweeps. One engine serves many VPs; it installs a
// demultiplexing ICMP handler on each VP it touches.
type Engine struct {
	Gen *decoy.Generator
	// MaxTTL bounds the sweep (paper: 64). 0 means HopLimit.
	MaxTTL int
	// ProbeSpacing is the virtual-time gap between consecutive TTL probes
	// (rate limiting, Appendix A). 0 means 500ms.
	ProbeSpacing time.Duration
	// Telemetry receives sweep/probe counters. Nil disables instrumentation
	// (the engine lazily creates handles under e.mu on first use).
	Telemetry *telemetry.Set

	mu       sync.Mutex
	attached map[*vantage.VP]map[uint16]*Sweep // by VP, then by sweep serial
	serials  map[*vantage.VP]uint16
	m        *engineMetrics
}

type engineMetrics struct {
	sweepsLaunched *telemetry.Counter
	sweepsAnalyzed *telemetry.Counter
	probesSent     *telemetry.Counter
	icmpHops       *telemetry.Counter
	destReplies    *telemetry.Counter
	silentHops     *telemetry.Counter
	observersFound *telemetry.Counter
}

// metrics returns the engine's counter handles, creating them on first
// use. Callers must hold e.mu. Returns nil when no Set is attached.
func (e *Engine) metrics() *engineMetrics {
	if e.Telemetry == nil {
		return nil
	}
	if e.m == nil {
		reg := e.Telemetry.Registry
		e.m = &engineMetrics{
			sweepsLaunched: reg.Counter("traceroute_sweeps_launched_total", "TTL sweeps scheduled by the engine"),
			sweepsAnalyzed: reg.Counter("traceroute_sweeps_analyzed_total", "sweeps joined with honeypot evidence"),
			probesSent:     reg.Counter("traceroute_probes_sent_total", "TTL-limited decoy probes emitted"),
			icmpHops:       reg.Counter("traceroute_icmp_hops_total", "hops revealed by ICMP Time Exceeded"),
			destReplies:    reg.Counter("traceroute_dest_replies_total", "probes answered by the destination"),
			silentHops:     reg.Counter("traceroute_silent_hops_total", "hops on analyzed paths that stayed ICMP-silent"),
			observersFound: reg.Counter("traceroute_observers_located_total", "analyzed sweeps that located an observer hop"),
		}
	}
	return e.m
}

// NewEngine builds an engine over the shared decoy generator.
func NewEngine(gen *decoy.Generator) *Engine {
	return &Engine{
		Gen:      gen,
		attached: make(map[*vantage.VP]map[uint16]*Sweep),
		serials:  make(map[*vantage.VP]uint16),
	}
}

// HopLimit is the largest initial TTL a sweep probes.
const HopLimit = 64

const serialBits = 9 // 512 concurrent sweeps per VP, 6 bits of TTL

// Sweep schedules a full TTL sweep from vp toward dst over proto and
// returns the live record. The caller advances the network; the record
// fills in as ICMP evidence arrives.
func (e *Engine) Sweep(n *netsim.Network, vp *vantage.VP, dst wire.Endpoint, proto decoy.Protocol) (*Sweep, error) {
	maxTTL := e.MaxTTL
	if maxTTL <= 0 {
		maxTTL = HopLimit
	}
	if maxTTL > HopLimit {
		return nil, fmt.Errorf("traceroute: max TTL %d exceeds %d", maxTTL, HopLimit)
	}
	spacing := e.ProbeSpacing
	if spacing == 0 {
		spacing = 500 * time.Millisecond
	}

	s := &Sweep{
		VP: vp, Dst: dst, Proto: proto,
		Probes:      make(map[uint8]*Probe),
		HopAddrs:    make(map[uint8]wire.Addr),
		DestReplied: make(map[uint8]bool),
		e:           e,
		slots:       make([]probeSlot, maxTTL),
	}

	e.mu.Lock()
	serial := e.serials[vp] % (1 << serialBits)
	e.serials[vp]++
	s.serial = serial
	sweeps, ok := e.attached[vp]
	if !ok {
		sweeps = make(map[uint16]*Sweep)
		e.attached[vp] = sweeps
		vp.Host.OnICMP(func(n *netsim.Network, pkt *wire.Packet) {
			e.handleICMP(vp, pkt)
		})
	}
	sweeps[serial] = s
	if m := e.metrics(); m != nil {
		m.sweepsLaunched.Inc()
	}
	e.mu.Unlock()

	for ttl := 1; ttl <= maxTTL; ttl++ {
		n.ScheduleAction(time.Duration(ttl-1)*spacing, s, ttl)
	}
	return s, nil
}

// Fire implements netsim.Action: the engine schedules each TTL of the
// sweep as one entry, whose arg is the TTL of the probe to send.
func (s *Sweep) Fire(n *netsim.Network, ttl int) {
	s.e.sendProbe(n, s, uint8(ttl))
}

func (e *Engine) sendProbe(n *netsim.Network, s *Sweep, ttl uint8) {
	d, err := e.Gen.Generate(s.Proto, n.Now(), s.VP.Addr, s.Dst, ttl)
	if err != nil {
		return
	}
	slot := &s.slots[ttl-1]
	slot.Probe = Probe{TTL: ttl, Label: d.Label, Domain: d.Domain, SentAt: n.Now()}
	slot.s = s
	s.mu.Lock()
	s.Probes[ttl] = &slot.Probe
	s.mu.Unlock()

	e.mu.Lock()
	m := e.metrics()
	if m != nil {
		m.probesSent.Inc()
	}
	e.mu.Unlock()

	ipID := probeID(s.serial, ttl)
	switch s.Proto {
	case decoy.DNS:
		// A per-probe waiter maps any resolver response back to this exact
		// TTL, giving direct destination-distance evidence.
		s.VP.SendUDPRequest(n, s.Dst, d.Payload, netsim.UDPRequestOpts{
			TTL: ttl, IPID: ipID, Timeout: 10 * time.Second, Replier: slot,
		})
	case decoy.HTTP, decoy.TLS:
		// No TCP handshake before tracerouting (Section 3): a bare data
		// packet keeps destination connections out of the experiment.
		s.VP.SendRawTCP(n, s.Dst, ttl, ipID, d.Payload)
	}
}

// Reply implements netsim.Replier: the destination answered this probe.
func (p *probeSlot) Reply(*netsim.Network, []byte) {
	s := p.s
	s.mu.Lock()
	s.DestReplied[p.TTL] = true
	s.mu.Unlock()
	s.e.mu.Lock()
	m := s.e.metrics()
	s.e.mu.Unlock()
	if m != nil {
		m.destReplies.Inc()
	}
}

// Timeout implements netsim.Replier: an unanswered probe is no evidence.
func (p *probeSlot) Timeout(*netsim.Network) {}

// handleICMP routes a Time Exceeded message to the sweep that sent the
// quoted probe.
func (e *Engine) handleICMP(vp *vantage.VP, pkt *wire.Packet) {
	if pkt.ICMP == nil || pkt.ICMP.Type != wire.ICMPTimeExceeded {
		return
	}
	var quoted wire.IPv4
	if err := pkt.ICMP.QuotedIPv4Into(&quoted); err != nil {
		return
	}
	serial, ttl := splitProbeID(quoted.ID)
	e.mu.Lock()
	s := e.attached[vp][serial]
	m := e.metrics()
	e.mu.Unlock()
	if s == nil || s.Dst.Addr != quoted.Dst {
		return
	}
	s.mu.Lock()
	// The probe with initial TTL t expires at hop t; the ICMP source is
	// that hop's router.
	if _, dup := s.HopAddrs[ttl]; !dup {
		s.HopAddrs[ttl] = pkt.IP.Src
		if m != nil {
			m.icmpHops.Inc()
		}
	}
	s.mu.Unlock()
}

// probeID packs (sweep serial, TTL) into a nonzero IP ID. The serial is
// stored +1 so the ID can never be zero (zero tells the Host to auto-assign
// an ID, which would break ICMP correlation).
func probeID(serial uint16, ttl uint8) uint16 {
	return (serial+1)<<6 | uint16(ttl-1)&0x3F
}

func splitProbeID(id uint16) (serial uint16, ttl uint8) {
	return id>>6 - 1, uint8(id&0x3F) + 1
}

// Result is the analyzed outcome of one sweep joined with honeypot
// evidence.
type Result struct {
	Sweep *Sweep
	// ObserverHop is the smallest TTL whose probe leaked (0 = no leak).
	ObserverHop int
	// AtDestination is true when leakage only occurs once probes reach the
	// destination.
	AtDestination bool
	// ObserverAddr is the ICMP-revealed router address of the observer hop
	// (zero when silent or at destination).
	ObserverAddr wire.Addr
	// NormalizedHop maps the observer position onto the paper's 1..10
	// scale, where 10 means destination.
	NormalizedHop int
	// DestDistance is the inferred hop distance to the destination.
	DestDistance int
	// SilentHops counts hops in [1, DestDistance-1] that returned no ICMP
	// Time Exceeded — a path-quality signal (filled by Engine.Analyze).
	SilentHops int
}

// Analyze joins a sweep with the set of leaked labels (labels of this
// sweep's probes that later appeared in unsolicited requests) and locates
// the observer.
func Analyze(s *Sweep, leaked map[string]bool) Result {
	res := Result{Sweep: s, DestDistance: s.DestDistance()}
	byLabel := s.Labels()
	minTTL := 0
	for label, ttl := range byLabel {
		if !leaked[label] {
			continue
		}
		if minTTL == 0 || int(ttl) < minTTL {
			minTTL = int(ttl)
		}
	}
	if minTTL == 0 {
		return res
	}
	res.ObserverHop = minTTL
	if res.DestDistance > 0 && minTTL >= res.DestDistance {
		res.AtDestination = true
		res.ObserverHop = res.DestDistance
		res.NormalizedHop = 10
		return res
	}
	res.ObserverAddr = s.HopAddr(minTTL)
	res.NormalizedHop = NormalizeHop(minTTL, res.DestDistance)
	return res
}

// Analyze joins the sweep with leaked labels via the package-level
// Analyze, then fills SilentHops and folds the outcome into the engine's
// telemetry counters.
func (e *Engine) Analyze(s *Sweep, leaked map[string]bool) Result {
	res := Analyze(s, leaked)
	res.SilentHops = countSilentHops(s, res.DestDistance)
	e.mu.Lock()
	if m := e.metrics(); m != nil {
		m.sweepsAnalyzed.Inc()
		m.silentHops.Add(int64(res.SilentHops))
		if res.ObserverHop > 0 {
			m.observersFound.Inc()
		}
	}
	e.mu.Unlock()
	return res
}

// countSilentHops counts hops in [1, destDistance-1] that returned no
// ICMP Time Exceeded. Zero when the destination distance is unknown.
func countSilentHops(s *Sweep, destDistance int) int {
	if destDistance <= 1 {
		return 0
	}
	silent := 0
	s.mu.Lock()
	for hop := 1; hop < destDistance; hop++ {
		if _, ok := s.HopAddrs[uint8(hop)]; !ok {
			silent++
		}
	}
	s.mu.Unlock()
	return silent
}

// NormalizeHop maps hop (1-based) on a path of destDistance hops onto the
// 1..10 scale of Table 2 (10 = destination).
func NormalizeHop(hop, destDistance int) int {
	if destDistance <= 0 {
		// Without distance evidence, clamp the raw hop.
		if hop > 10 {
			return 10
		}
		if hop < 1 {
			return 1
		}
		return hop
	}
	if hop >= destDistance {
		return 10
	}
	n := (hop*10 + destDistance - 1) / destDistance // ceil(hop/dist*10)
	if n < 1 {
		n = 1
	}
	if n > 9 {
		n = 9 // positions short of the destination never normalize to 10
	}
	return n
}
