package netsim

import (
	"testing"
	"time"

	"shadowmeter/internal/wire"
)

var t0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

func linearPath(routers ...*Router) PathFunc {
	return func(src, dst wire.Addr) []*Router { return routers }
}

func TestScheduleOrdering(t *testing.T) {
	n := New(Config{Start: t0})
	var order []int
	n.Schedule(2*time.Second, func() { order = append(order, 2) })
	n.Schedule(1*time.Second, func() { order = append(order, 1) })
	n.Schedule(1*time.Second, func() { order = append(order, 10) }) // FIFO among equals
	n.Schedule(3*time.Second, func() { order = append(order, 3) })
	n.RunUntilIdle()
	want := []int{1, 10, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := n.Now(); !got.Equal(t0.Add(3 * time.Second)) {
		t.Errorf("Now = %v", got)
	}
}

func TestRunDeadline(t *testing.T) {
	n := New(Config{Start: t0})
	ran := 0
	n.Schedule(time.Second, func() { ran++ })
	n.Schedule(time.Hour, func() { ran++ })
	n.Run(t0.Add(time.Minute))
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if !n.Now().Equal(t0.Add(time.Minute)) {
		t.Errorf("Now = %v, want deadline", n.Now())
	}
	n.RunUntilIdle()
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
}

func TestPacketDelivery(t *testing.T) {
	r1 := &Router{Name: "r1", Addr: wire.AddrFrom(10, 0, 0, 1)}
	r2 := &Router{Name: "r2", Addr: wire.AddrFrom(10, 0, 0, 2)}
	n := New(Config{Start: t0, Path: linearPath(r1, r2)})

	dst := wire.AddrFrom(192, 0, 2, 1)
	var got []byte
	n.AddHost(dst, HandlerFunc(func(n *Network, pkt *wire.Packet) {
		got = append([]byte(nil), pkt.TransportPayload()...)
	}))

	raw, err := wire.BuildUDP(
		wire.Endpoint{Addr: wire.AddrFrom(100, 0, 0, 1), Port: 5000},
		wire.Endpoint{Addr: dst, Port: 53}, 64, 1, []byte("query"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SendPacket(raw); err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle()
	if string(got) != "query" {
		t.Fatalf("payload = %q", got)
	}
	s := n.Stats()
	if s.PacketsSent != 1 || s.PacketsDelivered != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTTLExpiryGeneratesICMP(t *testing.T) {
	routers := []*Router{
		{Name: "r1", Addr: wire.AddrFrom(10, 0, 0, 1)},
		{Name: "r2", Addr: wire.AddrFrom(10, 0, 0, 2)},
		{Name: "r3", Addr: wire.AddrFrom(10, 0, 0, 3)},
	}
	n := New(Config{Start: t0, Path: linearPath(routers...)})

	src := wire.AddrFrom(100, 0, 0, 1)
	dst := wire.AddrFrom(192, 0, 2, 1)
	delivered := false
	n.AddHost(dst, HandlerFunc(func(n *Network, pkt *wire.Packet) { delivered = true }))

	var icmpFrom wire.Addr
	var quotedID uint16
	n.AddHost(src, HandlerFunc(func(n *Network, pkt *wire.Packet) {
		if pkt.ICMP != nil && pkt.ICMP.Type == wire.ICMPTimeExceeded {
			icmpFrom = pkt.IP.Src
			if q, err := pkt.ICMP.QuotedIPv4(); err == nil {
				quotedID = q.ID
			}
		}
	}))

	// TTL=2: expires at the second router.
	raw, _ := wire.BuildUDP(wire.Endpoint{Addr: src, Port: 4000}, wire.Endpoint{Addr: dst, Port: 53}, 2, 0xCAFE, []byte("probe"))
	n.SendPacket(raw)
	n.RunUntilIdle()

	if delivered {
		t.Error("packet with TTL=2 should not reach destination behind 3 routers")
	}
	if icmpFrom != routers[1].Addr {
		t.Errorf("ICMP from %v, want %v", icmpFrom, routers[1].Addr)
	}
	if quotedID != 0xCAFE {
		t.Errorf("quoted IP ID = %#x, want 0xCAFE", quotedID)
	}
	if n.Stats().TTLExpired != 1 || n.Stats().ICMPSent != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

func TestTTLReachability(t *testing.T) {
	// Exactly TTL = hops+1 is needed to reach the destination.
	routers := []*Router{
		{Addr: wire.AddrFrom(10, 0, 0, 1)},
		{Addr: wire.AddrFrom(10, 0, 0, 2)},
		{Addr: wire.AddrFrom(10, 0, 0, 3)},
	}
	for ttl := uint8(1); ttl <= 5; ttl++ {
		n := New(Config{Start: t0, Path: linearPath(routers...)})
		src, dst := wire.AddrFrom(100, 0, 0, 1), wire.AddrFrom(192, 0, 2, 1)
		delivered := false
		n.AddHost(dst, HandlerFunc(func(n *Network, pkt *wire.Packet) { delivered = true }))
		raw, _ := wire.BuildUDP(wire.Endpoint{Addr: src, Port: 1}, wire.Endpoint{Addr: dst, Port: 2}, ttl, 1, nil)
		n.SendPacket(raw)
		n.RunUntilIdle()
		want := ttl >= 4
		if delivered != want {
			t.Errorf("TTL=%d delivered=%v, want %v", ttl, delivered, want)
		}
	}
}

func TestICMPSilentRouter(t *testing.T) {
	r := &Router{Addr: wire.AddrFrom(10, 0, 0, 1), ICMPSilent: true}
	n := New(Config{Start: t0, Path: linearPath(r)})
	src := wire.AddrFrom(100, 0, 0, 1)
	gotICMP := false
	n.AddHost(src, HandlerFunc(func(n *Network, pkt *wire.Packet) { gotICMP = pkt.ICMP != nil }))
	raw, _ := wire.BuildUDP(wire.Endpoint{Addr: src, Port: 1}, wire.Endpoint{Addr: wire.AddrFrom(9, 9, 9, 9), Port: 2}, 1, 1, nil)
	n.SendPacket(raw)
	n.RunUntilIdle()
	if gotICMP {
		t.Error("silent router must not answer")
	}
	if n.Stats().TTLExpired != 1 || n.Stats().ICMPSent != 0 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

type recordingTap struct {
	seen []string
	ttls []uint8
}

func (rt *recordingTap) Observe(n *Network, at *Router, pkt *wire.Packet) {
	rt.seen = append(rt.seen, string(pkt.TransportPayload()))
	rt.ttls = append(rt.ttls, pkt.IP.TTL)
}

func TestTapObservesBeforeTTLCheck(t *testing.T) {
	tap := &recordingTap{}
	r1 := &Router{Addr: wire.AddrFrom(10, 0, 0, 1)}
	r2 := &Router{Addr: wire.AddrFrom(10, 0, 0, 2)}
	r2.AttachTap(tap)
	n := New(Config{Start: t0, Path: linearPath(r1, r2)})
	src, dst := wire.AddrFrom(100, 0, 0, 1), wire.AddrFrom(192, 0, 2, 1)
	n.AddHost(src, HandlerFunc(func(*Network, *wire.Packet) {}))

	// TTL=2 expires exactly at r2; the tap must still see it.
	raw, _ := wire.BuildUDP(wire.Endpoint{Addr: src, Port: 1}, wire.Endpoint{Addr: dst, Port: 2}, 2, 1, []byte("sniffme"))
	n.SendPacket(raw)
	n.RunUntilIdle()
	if len(tap.seen) != 1 || tap.seen[0] != "sniffme" {
		t.Fatalf("tap saw %v", tap.seen)
	}
	if tap.ttls[0] != 1 {
		t.Errorf("observed TTL = %d, want 1 (decremented once at r1)", tap.ttls[0])
	}

	// TTL=1 expires at r1; r2's tap must NOT see it.
	tap.seen = nil
	raw, _ = wire.BuildUDP(wire.Endpoint{Addr: src, Port: 1}, wire.Endpoint{Addr: dst, Port: 2}, 1, 2, []byte("hidden"))
	n.SendPacket(raw)
	n.RunUntilIdle()
	if len(tap.seen) != 0 {
		t.Errorf("tap at hop 2 saw a TTL=1 packet: %v", tap.seen)
	}
}

func TestNoHandlerCounted(t *testing.T) {
	n := New(Config{Start: t0})
	raw, _ := wire.BuildUDP(wire.Endpoint{Addr: wire.AddrFrom(1, 1, 1, 1), Port: 1}, wire.Endpoint{Addr: wire.AddrFrom(2, 2, 2, 2), Port: 2}, 64, 1, nil)
	n.SendPacket(raw)
	n.RunUntilIdle()
	if n.Stats().NoHandler != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

func TestSendPacketRejectsGarbage(t *testing.T) {
	n := New(Config{Start: t0})
	if err := n.SendPacket([]byte("junk")); err == nil {
		t.Error("garbage should be rejected")
	}
}

func TestVirtualTimeLatency(t *testing.T) {
	routers := []*Router{{Addr: wire.AddrFrom(10, 0, 0, 1)}, {Addr: wire.AddrFrom(10, 0, 0, 2)}}
	n := New(Config{Start: t0, Path: linearPath(routers...), HopLatency: 10 * time.Millisecond})
	dst := wire.AddrFrom(192, 0, 2, 1)
	var at time.Time
	n.AddHost(dst, HandlerFunc(func(n *Network, pkt *wire.Packet) { at = n.Now() }))
	raw, _ := wire.BuildUDP(wire.Endpoint{Addr: wire.AddrFrom(1, 1, 1, 1), Port: 1}, wire.Endpoint{Addr: dst, Port: 2}, 64, 1, nil)
	n.SendPacket(raw)
	n.RunUntilIdle()
	// 2 router hops + final delivery = 3 latency units.
	if want := t0.Add(30 * time.Millisecond); !at.Equal(want) {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestMaxEventsBound(t *testing.T) {
	n := New(Config{Start: t0})
	n.SetMaxEvents(10)
	var boom func(d time.Duration)
	boom = func(d time.Duration) {
		n.Schedule(d, func() { boom(d + time.Millisecond) })
	}
	boom(time.Millisecond)
	processed := n.RunUntilIdle()
	if processed != 10 {
		t.Errorf("processed = %d, want 10 (bounded)", processed)
	}
}

func TestRunClockStopsAtMaxEvents(t *testing.T) {
	// When the maxEvents safety valve breaks the loop, the clock must stay
	// at the last dispatched event: fast-forwarding to the deadline would
	// leave the survivors stamped in the past for the next run.
	n := New(Config{Start: t0})
	n.SetMaxEvents(1)
	n.Schedule(time.Second, func() {})
	n.Schedule(2*time.Second, func() {})
	deadline := t0.Add(time.Hour)
	if got := n.Run(deadline); got != 1 {
		t.Fatalf("processed = %d, want 1", got)
	}
	if !n.Now().Equal(t0.Add(time.Second)) {
		t.Fatalf("Now = %v, want %v (not the deadline)", n.Now(), t0.Add(time.Second))
	}

	// The surviving event still dispatches at its own timestamp.
	n.SetMaxEvents(0)
	var at time.Time
	n.Schedule(5*time.Second, func() { at = n.Now() })
	n.RunUntilIdle()
	if want := t0.Add(time.Second + 5*time.Second); !at.Equal(want) {
		t.Errorf("late event ran at %v, want %v", at, want)
	}

	// A clean drain to the deadline still fast-forwards.
	n2 := New(Config{Start: t0})
	n2.SetMaxEvents(10)
	n2.Schedule(time.Second, func() {})
	n2.Run(deadline)
	if !n2.Now().Equal(deadline) {
		t.Errorf("drained run: Now = %v, want deadline %v", n2.Now(), deadline)
	}
}

func TestICMPReturnLatencyProportional(t *testing.T) {
	// Phase II infers observer distance from per-TTL RTTs, so the ICMP
	// return trip must scale with how far the probe got: arrival at
	// send + 2*TTL*hopLatency, strictly increasing across the sweep.
	routers := []*Router{
		{Addr: wire.AddrFrom(10, 0, 0, 1)},
		{Addr: wire.AddrFrom(10, 0, 0, 2)},
		{Addr: wire.AddrFrom(10, 0, 0, 3)},
		{Addr: wire.AddrFrom(10, 0, 0, 4)},
	}
	const hop = 10 * time.Millisecond
	var prev time.Duration
	for ttl := uint8(1); ttl <= 4; ttl++ {
		n := New(Config{Start: t0, Path: linearPath(routers...), HopLatency: hop})
		src := wire.AddrFrom(100, 0, 0, 1)
		var rtt time.Duration
		n.AddHost(src, HandlerFunc(func(n *Network, pkt *wire.Packet) {
			if pkt.ICMP != nil && pkt.ICMP.Type == wire.ICMPTimeExceeded {
				rtt = n.Now().Sub(t0)
			}
		}))
		raw, _ := wire.BuildUDP(wire.Endpoint{Addr: src, Port: 1},
			wire.Endpoint{Addr: wire.AddrFrom(192, 0, 2, 1), Port: 2}, ttl, 1, nil)
		n.SendPacket(raw)
		n.RunUntilIdle()
		want := 2 * time.Duration(ttl) * hop
		if rtt != want {
			t.Errorf("TTL=%d: RTT = %v, want %v", ttl, rtt, want)
		}
		if rtt <= prev {
			t.Errorf("TTL=%d: RTT %v not greater than previous %v", ttl, rtt, prev)
		}
		prev = rtt
	}
}

func TestNoRouteNotDeliveredHopFree(t *testing.T) {
	// A nil path from the topology means "no route" even when the
	// destination is a registered host: delivering hop-free would bypass
	// every tap and the topology's own verdict.
	tap := &recordingTap{}
	r := &Router{Addr: wire.AddrFrom(10, 0, 0, 1)}
	r.AttachTap(tap)
	n := New(Config{Start: t0, Path: func(src, dst wire.Addr) []*Router { return nil }})
	dst := wire.AddrFrom(192, 0, 2, 1)
	delivered := false
	n.AddHost(dst, HandlerFunc(func(*Network, *wire.Packet) { delivered = true }))
	raw, _ := wire.BuildUDP(wire.Endpoint{Addr: wire.AddrFrom(100, 0, 0, 1), Port: 1},
		wire.Endpoint{Addr: dst, Port: 2}, 64, 1, nil)
	if err := n.SendPacket(raw); err != nil {
		t.Fatal(err)
	}
	n.RunUntilIdle()
	if delivered {
		t.Error("unroutable packet was delivered hop-free to a registered host")
	}
	if len(tap.seen) != 0 {
		t.Errorf("tap saw %v for an unroutable packet", tap.seen)
	}
	s := n.Stats()
	if s.NoRoute != 1 || s.PacketsDelivered != 0 {
		t.Errorf("stats = %+v, want NoRoute=1 Delivered=0", s)
	}
}

func TestForwardPathAllocationFree(t *testing.T) {
	// The flight and buffer pools keep the steady-state forward path nearly
	// allocation-free: one alloc for the packet copy in SendPacket plus
	// heap-slice noise, nothing per hop.
	routers := []*Router{
		{Name: "r1", Addr: wire.AddrFrom(10, 0, 0, 1)},
		{Name: "r2", Addr: wire.AddrFrom(10, 0, 0, 2)},
		{Name: "r3", Addr: wire.AddrFrom(10, 0, 0, 3)},
	}
	n := New(Config{Start: t0, Path: linearPath(routers...)})
	dst := wire.AddrFrom(192, 0, 2, 1)
	n.AddHost(dst, HandlerFunc(func(*Network, *wire.Packet) {}))
	raw, _ := wire.BuildUDP(wire.Endpoint{Addr: wire.AddrFrom(100, 0, 0, 1), Port: 1},
		wire.Endpoint{Addr: dst, Port: 2}, 64, 1, []byte("payload"))
	// Warm the pools and the per-router tap-counter cache.
	for i := 0; i < 10; i++ {
		n.Inject(raw)
		n.RunUntilIdle()
	}
	avg := testing.AllocsPerRun(100, func() {
		n.Inject(raw)
		n.RunUntilIdle()
	})
	if avg > 4 {
		t.Errorf("forward path allocates %.1f allocs/send, want <= 4", avg)
	}
}

func TestPacketLossInjection(t *testing.T) {
	routers := []*Router{
		{Addr: wire.AddrFrom(10, 0, 0, 1)},
		{Addr: wire.AddrFrom(10, 0, 0, 2)},
		{Addr: wire.AddrFrom(10, 0, 0, 3)},
	}
	n := New(Config{
		Start: t0, Path: func(src, dst wire.Addr) []*Router { return routers },
		LossRate: 0.3, LossSeed: 7,
	})
	dst := wire.AddrFrom(192, 0, 2, 1)
	delivered := 0
	n.AddHost(dst, HandlerFunc(func(n *Network, pkt *wire.Packet) { delivered++ }))
	const sent = 500
	for i := 0; i < sent; i++ {
		raw, _ := wire.BuildUDP(wire.Endpoint{Addr: wire.AddrFrom(1, 1, 1, 1), Port: 1},
			wire.Endpoint{Addr: dst, Port: 2}, 64, uint16(i+1), nil)
		n.SendPacket(raw)
	}
	n.RunUntilIdle()
	s := n.Stats()
	if s.PacketsLost == 0 {
		t.Fatal("no loss injected")
	}
	if delivered == 0 {
		t.Fatal("everything lost at 30% per-hop rate")
	}
	// Per-hop loss 0.3 over 3 hops => survival ~0.343; allow wide noise.
	frac := float64(delivered) / float64(sent)
	if frac < 0.2 || frac > 0.5 {
		t.Errorf("delivery fraction = %v, want ~0.34", frac)
	}
	if s.PacketsLost+int64(delivered) > int64(sent) {
		// Lost counts per-hop drops of distinct packets only; a packet lost
		// at hop 1 is never re-dropped.
		t.Errorf("loss accounting off: lost=%d delivered=%d", s.PacketsLost, delivered)
	}
}

func TestLossDeterministic(t *testing.T) {
	run := func() int64 {
		routers := []*Router{{Addr: wire.AddrFrom(10, 0, 0, 1)}}
		n := New(Config{Start: t0, Path: func(src, dst wire.Addr) []*Router { return routers },
			LossRate: 0.5, LossSeed: 3})
		dst := wire.AddrFrom(192, 0, 2, 1)
		n.AddHost(dst, HandlerFunc(func(*Network, *wire.Packet) {}))
		for i := 0; i < 200; i++ {
			raw, _ := wire.BuildUDP(wire.Endpoint{Addr: wire.AddrFrom(1, 1, 1, 1), Port: 1},
				wire.Endpoint{Addr: dst, Port: 2}, 64, uint16(i+1), nil)
			n.SendPacket(raw)
		}
		n.RunUntilIdle()
		return n.Stats().PacketsLost
	}
	if a, b := run(), run(); a != b {
		t.Errorf("loss not deterministic: %d vs %d", a, b)
	}
}
