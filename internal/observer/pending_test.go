package observer

import (
	"encoding/binary"
	"testing"
	"time"
	"unsafe"

	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/wire"
)

// poolRig is a flat network with one exhibitor origin, a resolver that
// answers every A query with webAddr, and a web server that logs each
// request's Host. lateFirst makes the resolver hold its first answer for
// lateBy, so that it arrives after the origin's lookup timed out.
type poolRig struct {
	n       *netsim.Network
	ex      *Exhibitor
	hosts   []string
	queries int
}

const lateBy = 6 * time.Second // past the 5 s default lookup timeout

func newPoolRig(t testing.TB, kind ProbeKind, lateFirst bool) *poolRig {
	t.Helper()
	r := &poolRig{n: netsim.New(netsim.Config{Start: t0})}
	resolverAddr := wire.MustParseAddr("8.8.8.8")
	webAddr := wire.MustParseAddr("198.51.100.2")

	// The resolver answers in place, so that it allocates nothing itself:
	// the query with QR set and one A record for the question name.
	resolver := netsim.NewHost(r.n, resolverAddr)
	var reply []byte
	resolver.ServeUDP(53, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		r.queries++
		reply = append(reply[:0], payload...)
		reply[2] |= 0x80
		binary.BigEndian.PutUint16(reply[6:8], 1)
		reply = append(reply, 0xC0, 12, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassIN), 0, 0, 0, 60, 0, 4)
		reply = append(reply, webAddr[:]...)
		if lateFirst && r.queries == 1 {
			late := append([]byte(nil), reply...)
			n.Schedule(lateBy, func() {
				n.InjectUDP(wire.Endpoint{Addr: resolverAddr, Port: 53}, from, 64, 0, late)
			})
			return nil
		}
		return reply
	})
	web := netsim.NewHost(r.n, webAddr)
	web.ServeTCP(80, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		req, err := httpwire.ParseRequest(payload)
		if err != nil {
			t.Fatal(err)
		}
		r.hosts = append(r.hosts, req.Host())
		return nil
	})

	origin := Origin{Host: netsim.NewHost(r.n, wire.MustParseAddr("100.64.0.9")), Resolver: resolverAddr}
	r.ex = NewExhibitor(Profile{
		Name: "pool",
		Rules: []ProbeRule{{
			Kind: kind, Prob: 1,
			Delay: DelayDist{Ranges: []DelayRange{{Min: time.Second, Max: time.Second, Weight: 1}}},
			Count: CountDist{Min: 1, Max: 1},
		}},
	}, []Origin{origin}, 1)
	return r
}

// checkFreeList asserts that every record of the exhibitor's slabs is
// back on the free list exactly once.
func checkFreeList(t *testing.T, e *Exhibitor) {
	t.Helper()
	if len(e.free) != e.slabs*slabSize {
		t.Fatalf("free list holds %d records of %d slabs' %d", len(e.free), e.slabs, e.slabs*slabSize)
	}
	seen := make(map[*pending]bool, len(e.free))
	for _, p := range e.free {
		if seen[p] {
			t.Fatal("a record is on the free list twice")
		}
		seen[p] = true
		if p.domain != "" {
			t.Fatalf("released record still holds domain %q", p.domain)
		}
	}
}

// TestPendingRecordSize holds a retained domain's record to the 32 bytes
// its documentation promises: one is kept per pending probe, for days of
// virtual time at full scale.
func TestPendingRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(pending{}); size != 32 {
		t.Errorf("pending record is %d bytes, want 32", size)
	}
}

// TestLateReplyMissesReusedRecord times out one HTTP probe's lookup, reuses
// its record for a second observation, and then delivers the first
// lookup's answer while the reused record waits in the queue. The late
// answer must reach no record: only the second probe fetches, and every
// record returns to the free list exactly once.
func TestLateReplyMissesReusedRecord(t *testing.T) {
	r := newPoolRig(t, ProbeHTTP, true)
	r.ex.ObserveDomain(r.n, "first.example")
	first := r.ex.free[:len(r.ex.free)+1][len(r.ex.free)] // the record just taken
	// The first lookup leaves at 1 s and times out at 6 s; its answer
	// returns a little after 7 s. The second observation, at 6.5 s, takes
	// the record back and fires it at 7.5 s.
	reused := false
	r.n.Schedule(6500*time.Millisecond, func() {
		r.ex.ObserveDomain(r.n, "second.example")
		reused = first.domain == "second.example"
	})
	r.n.RunUntilIdle()
	if !reused {
		t.Fatal("the second observation did not reuse the timed-out record")
	}
	if r.queries != 2 {
		t.Fatalf("resolver saw %d queries, want 2", r.queries)
	}
	if len(r.hosts) != 1 || r.hosts[0] != "second.example" {
		t.Fatalf("web server saw requests for %q, want only second.example", r.hosts)
	}
	checkFreeList(t, r.ex)
}

// TestPendingRecordsRecycle runs 10,000 observe → fire → reply cycles of
// each probe kind: after the first, neither the free list nor the slab
// count may grow.
func TestPendingRecordsRecycle(t *testing.T) {
	for _, kind := range []ProbeKind{ProbeDNS, ProbeHTTP} {
		r := newPoolRig(t, kind, false)
		r.ex.ObserveDomain(r.n, "warm.example")
		r.n.RunUntilIdle()
		free, slabs := len(r.ex.free), r.ex.slabs
		for i := 0; i < 10_000; i++ {
			r.ex.ObserveDomain(r.n, "cycle.example")
			r.n.RunUntilIdle()
		}
		if len(r.ex.free) != free || r.ex.slabs != slabs || slabs != 1 {
			t.Fatalf("%v: free list %d → %d, slabs %d → %d", kind, free, len(r.ex.free), slabs, r.ex.slabs)
		}
		if r.queries != 10_001 {
			t.Fatalf("%v: resolver saw %d queries, want 10001", kind, r.queries)
		}
		checkFreeList(t, r.ex)
	}
}

// TestPendingSlabsGrowWithRetention keeps more domains pending than one
// slab holds: the exhibitor carves a second slab, and once every probe
// has fired all of both slabs' records are free again.
func TestPendingSlabsGrowWithRetention(t *testing.T) {
	r := newPoolRig(t, ProbeDNS, false)
	for i := 0; i < slabSize+1; i++ {
		r.ex.ObserveDomain(r.n, "retained.example")
	}
	if r.ex.slabs != 2 {
		t.Fatalf("%d pending records made %d slabs, want 2", slabSize+1, r.ex.slabs)
	}
	r.n.RunUntilIdle()
	checkFreeList(t, r.ex)
}

// BenchmarkLaunchDNS measures one steady-state DNS-kind probe: the
// observation schedules a pooled record, which fires, sends its lookup
// from the scratch encoder and returns to the free list on the answer.
// None of it may allocate.
func BenchmarkLaunchDNS(b *testing.B) {
	r := newPoolRig(b, ProbeDNS, false)
	for i := 0; i < 10; i++ {
		r.ex.ObserveDomain(r.n, "steady.example")
		r.n.RunUntilIdle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ex.ObserveDomain(r.n, "steady.example")
		r.n.RunUntilIdle()
	}
}
