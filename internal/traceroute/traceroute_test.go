package traceroute

import (
	"testing"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/vantage"
	"shadowmeter/internal/wire"
)

var t0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

// rig builds a 5-router path from a VP to a DNS destination.
type rig struct {
	n       *netsim.Network
	routers []*netsim.Router
	vp      *vantage.VP
	dst     wire.Endpoint
	engine  *Engine
}

func newRig(t *testing.T, silentHops map[int]bool) *rig {
	t.Helper()
	routers := make([]*netsim.Router, 5)
	for i := range routers {
		routers[i] = &netsim.Router{
			Name:       "r",
			Addr:       wire.AddrFrom(10, 0, 0, byte(i+1)),
			ICMPSilent: silentHops[i+1],
		}
	}
	n := netsim.New(netsim.Config{Start: t0, Path: func(src, dst wire.Addr) []*netsim.Router {
		return routers
	}})
	dstAddr := wire.MustParseAddr("77.88.8.8")
	srv := netsim.NewHost(n, dstAddr)
	srv.ServeUDP(53, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		q, err := dnswire.Decode(payload)
		if err != nil {
			return nil
		}
		resp := dnswire.NewResponse(q, dnswire.RcodeNoError)
		raw, _ := resp.Encode()
		return raw
	})
	prov := &vantage.Provider{Name: "test", Market: vantage.Global}
	vpAddr := wire.MustParseAddr("100.64.0.1")
	vp := &vantage.VP{Provider: prov, Host: netsim.NewHost(n, vpAddr), Addr: vpAddr}
	gen := decoy.NewGenerator("experiment.domain", t0)
	return &rig{n: n, routers: routers, vp: vp, dst: wire.Endpoint{Addr: dstAddr, Port: 53}, engine: NewEngine(gen)}
}

func TestSweepCollectsHops(t *testing.T) {
	r := newRig(t, nil)
	r.engine.MaxTTL = 10
	s, err := r.engine.Sweep(r.n, r.vp, r.dst, decoy.DNS)
	if err != nil {
		t.Fatal(err)
	}
	r.n.RunUntilIdle()
	// Hops 1..5 respond with ICMP; TTL >= 6 reaches the resolver.
	for hop := 1; hop <= 5; hop++ {
		if got := s.HopAddr(hop); got != r.routers[hop-1].Addr {
			t.Errorf("hop %d addr = %v, want %v", hop, got, r.routers[hop-1].Addr)
		}
	}
	if d := s.DestDistance(); d != 6 {
		t.Errorf("DestDistance = %d, want 6", d)
	}
	if len(s.Probes) != 10 {
		t.Errorf("probes = %d", len(s.Probes))
	}
	// Every TTL >= 6 got a resolver reply.
	for ttl := uint8(6); ttl <= 10; ttl++ {
		if !s.DestReplied[ttl] {
			t.Errorf("TTL %d not marked as destination-replied", ttl)
		}
	}
	// Labels are unique per TTL and decode back to the right TTL.
	labels := s.Labels()
	if len(labels) != 10 {
		t.Errorf("labels = %d", len(labels))
	}
	for label, ttl := range labels {
		id, err := r.engine.Gen.Codec().Decode(label)
		if err != nil {
			t.Fatalf("label %q: %v", label, err)
		}
		if id.TTL != ttl {
			t.Errorf("label TTL %d != probe TTL %d", id.TTL, ttl)
		}
	}
}

func TestSweepSilentRouters(t *testing.T) {
	r := newRig(t, map[int]bool{3: true})
	r.engine.MaxTTL = 8
	s, err := r.engine.Sweep(r.n, r.vp, r.dst, decoy.DNS)
	if err != nil {
		t.Fatal(err)
	}
	r.n.RunUntilIdle()
	if got := s.HopAddr(3); !got.IsZero() {
		t.Errorf("silent hop revealed: %v", got)
	}
	if got := s.HopAddr(2); got.IsZero() {
		t.Error("hop 2 missing")
	}
	if d := s.DestDistance(); d != 6 {
		t.Errorf("DestDistance = %d, want 6", d)
	}
}

func TestSweepRawTCPMode(t *testing.T) {
	r := newRig(t, nil)
	r.engine.MaxTTL = 8
	s, err := r.engine.Sweep(r.n, r.vp, wire.Endpoint{Addr: r.dst.Addr, Port: 443}, decoy.TLS)
	if err != nil {
		t.Fatal(err)
	}
	r.n.RunUntilIdle()
	// No destination replies (no handshake), but ICMP gives distance 6.
	if len(s.DestReplied) != 0 {
		t.Errorf("raw TCP sweep saw dest replies: %v", s.DestReplied)
	}
	if d := s.DestDistance(); d != 6 {
		t.Errorf("DestDistance = %d, want 6", d)
	}
}

// TestSweepLateReplyIsNoEvidence has the destination answer each probe
// only after the probe's 10 s request timeout: the late replies must not
// mark the probe's TTL as destination-replied, and the ICMP hops still
// give the distance. A probe's slot is its request's Replier, so a reply
// reaching it after the timeout would show here.
func TestSweepLateReplyIsNoEvidence(t *testing.T) {
	r := newRig(t, nil)
	r.engine.MaxTTL = 8
	late := netsim.NewHost(r.n, r.dst.Addr) // replaces the rig's prompt server
	late.ServeUDP(53, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		q, err := dnswire.Decode(payload)
		if err != nil {
			return nil
		}
		raw, _ := dnswire.NewResponse(q, dnswire.RcodeNoError).Encode()
		n.Schedule(11*time.Second, func() { n.InjectUDP(r.dst, from, 64, 0, raw) })
		return nil
	})
	s, err := r.engine.Sweep(r.n, r.vp, r.dst, decoy.DNS)
	if err != nil {
		t.Fatal(err)
	}
	r.n.RunUntilIdle()
	if len(s.DestReplied) != 0 {
		t.Errorf("late replies marked TTLs %v as destination-replied", s.DestReplied)
	}
	if len(s.Probes) != 8 {
		t.Errorf("probes = %d, want 8", len(s.Probes))
	}
	if d := s.DestDistance(); d != 6 {
		t.Errorf("DestDistance = %d, want 6", d)
	}
}

func TestAnalyzeMidPathObserver(t *testing.T) {
	r := newRig(t, nil)
	r.engine.MaxTTL = 10
	s, _ := r.engine.Sweep(r.n, r.vp, r.dst, decoy.DNS)
	r.n.RunUntilIdle()

	// Ground truth: an observer at hop 3 leaks every probe with TTL >= 3.
	leaked := make(map[string]bool)
	for label, ttl := range s.Labels() {
		if ttl >= 3 {
			leaked[label] = true
		}
	}
	res := Analyze(s, leaked)
	if res.ObserverHop != 3 {
		t.Errorf("ObserverHop = %d, want 3", res.ObserverHop)
	}
	if res.AtDestination {
		t.Error("mid-path observer classified at destination")
	}
	if res.ObserverAddr != r.routers[2].Addr {
		t.Errorf("ObserverAddr = %v, want %v", res.ObserverAddr, r.routers[2].Addr)
	}
	if res.NormalizedHop != 5 { // ceil(3/6*10) = 5
		t.Errorf("NormalizedHop = %d, want 5", res.NormalizedHop)
	}
}

func TestAnalyzeDestinationObserver(t *testing.T) {
	r := newRig(t, nil)
	r.engine.MaxTTL = 10
	s, _ := r.engine.Sweep(r.n, r.vp, r.dst, decoy.DNS)
	r.n.RunUntilIdle()
	// Only probes that actually reached the destination (TTL >= 6) leak.
	leaked := make(map[string]bool)
	for label, ttl := range s.Labels() {
		if ttl >= 6 {
			leaked[label] = true
		}
	}
	res := Analyze(s, leaked)
	if !res.AtDestination {
		t.Fatalf("not classified at destination: %+v", res)
	}
	if res.NormalizedHop != 10 {
		t.Errorf("NormalizedHop = %d, want 10", res.NormalizedHop)
	}
	if !res.ObserverAddr.IsZero() {
		t.Errorf("destination observer should have no router addr, got %v", res.ObserverAddr)
	}
}

func TestAnalyzeNoLeak(t *testing.T) {
	r := newRig(t, nil)
	r.engine.MaxTTL = 6
	s, _ := r.engine.Sweep(r.n, r.vp, r.dst, decoy.DNS)
	r.n.RunUntilIdle()
	res := Analyze(s, nil)
	if res.ObserverHop != 0 || res.AtDestination {
		t.Errorf("clean path misclassified: %+v", res)
	}
}

func TestNormalizeHop(t *testing.T) {
	cases := []struct {
		hop, dist, want int
	}{
		{1, 10, 1}, {5, 10, 5}, {9, 10, 9}, {10, 10, 10}, {12, 10, 10},
		{3, 6, 5}, {1, 6, 2}, {5, 6, 9}, {6, 6, 10},
		{2, 0, 2}, {15, 0, 10},
	}
	for _, tc := range cases {
		if got := NormalizeHop(tc.hop, tc.dist); got != tc.want {
			t.Errorf("NormalizeHop(%d, %d) = %d, want %d", tc.hop, tc.dist, got, tc.want)
		}
	}
}

func TestProbeIDRoundTrip(t *testing.T) {
	for serial := uint16(0); serial < 1024; serial += 97 {
		for ttl := uint8(1); ttl <= 64; ttl += 7 {
			gotSerial, gotTTL := splitProbeID(probeID(serial, ttl))
			if gotSerial != serial || gotTTL != ttl {
				t.Fatalf("roundtrip (%d,%d) -> (%d,%d)", serial, ttl, gotSerial, gotTTL)
			}
		}
	}
}

func TestMultipleSweepsSameVP(t *testing.T) {
	r := newRig(t, nil)
	r.engine.MaxTTL = 6
	s1, _ := r.engine.Sweep(r.n, r.vp, r.dst, decoy.DNS)
	s2, _ := r.engine.Sweep(r.n, r.vp, wire.Endpoint{Addr: r.dst.Addr, Port: 443}, decoy.TLS)
	r.n.RunUntilIdle()
	if s1.DestDistance() != 6 || s2.DestDistance() != 6 {
		t.Errorf("distances = %d, %d", s1.DestDistance(), s2.DestDistance())
	}
	// Hop evidence must not bleed between sweeps.
	if len(s1.HopAddrs) != 5 || len(s2.HopAddrs) != 5 {
		t.Errorf("hop counts = %d, %d", len(s1.HopAddrs), len(s2.HopAddrs))
	}
}

func TestSweepMaxTTLBound(t *testing.T) {
	r := newRig(t, nil)
	r.engine.MaxTTL = 65
	if _, err := r.engine.Sweep(r.n, r.vp, r.dst, decoy.DNS); err == nil {
		t.Error("MaxTTL > 64 should be rejected")
	}
}

func BenchmarkSweep(b *testing.B) {
	routers := make([]*netsim.Router, 8)
	for i := range routers {
		routers[i] = &netsim.Router{Addr: wire.AddrFrom(10, 0, 0, byte(i+1))}
	}
	n := netsim.New(netsim.Config{Start: t0, Path: func(src, dst wire.Addr) []*netsim.Router { return routers }})
	dstAddr := wire.MustParseAddr("77.88.8.8")
	srv := netsim.NewHost(n, dstAddr)
	srv.ServeUDP(53, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte { return payload })
	prov := &vantage.Provider{Name: "bench"}
	vp := &vantage.VP{Provider: prov, Host: netsim.NewHost(n, wire.MustParseAddr("100.64.0.1")), Addr: wire.MustParseAddr("100.64.0.1")}
	engine := NewEngine(decoy.NewGenerator("experiment.domain", t0))
	engine.MaxTTL = 32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Sweep(n, vp, wire.Endpoint{Addr: dstAddr, Port: 53}, decoy.DNS); err != nil {
			b.Fatal(err)
		}
		n.RunUntilIdle()
	}
}
