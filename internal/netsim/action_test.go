package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"shadowmeter/internal/wire"
)

// logAction records each Fire's arg in a shared log.
type logAction struct{ log *[]int }

func (a logAction) Fire(_ *Network, arg int) { *a.log = append(*a.log, arg) }

// TestScheduleAndActionsInterleave schedules closures and typed actions
// in one random sequence, with many equal instants and both lanes in
// play: they must dispatch in (time, schedule order) whichever way they
// were scheduled, and each action must receive its own arg.
func TestScheduleAndActionsInterleave(t *testing.T) {
	n := New(Config{Start: t0})
	rng := rand.New(rand.NewSource(3))
	delays := []time.Duration{-1, 0, time.Millisecond, DefaultHopLatency, DefaultHopLatency, 3 * DefaultHopLatency}
	var log []int
	act := logAction{log: &log}
	type item struct {
		at time.Duration
		id int
	}
	var items []item
	for id := 0; id < 2000; id++ {
		d := delays[rng.Intn(len(delays))]
		items = append(items, item{at: max(d, 0), id: id})
		if id%2 == 0 {
			n.ScheduleAction(d, act, id)
		} else {
			n.Schedule(d, func() { log = append(log, id) })
		}
	}
	n.RunUntilIdle()
	// A stable sort by time keeps schedule order among equal instants.
	want := make([]int, 0, len(items))
	for _, d := range []time.Duration{0, time.Millisecond, DefaultHopLatency, 3 * DefaultHopLatency} {
		for _, it := range items {
			if it.at == d {
				want = append(want, it.id)
			}
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatal("Schedule and ScheduleAction entries did not dispatch in (time, seq) order")
	}
}

// TestLateReplyAfterTimeout holds the Replier contract: a request whose
// reply arrives after its timeout sees Timeout once and never Reply, even
// when the waiter has since been reused by a request that is answered.
func TestLateReplyAfterTimeout(t *testing.T) {
	n := New(Config{Start: t0})
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 53))
	late := true
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, payload []byte) []byte {
		if late {
			late = false
			reply := append([]byte("late:"), payload...)
			n.Schedule(time.Second, func() {
				n.InjectUDP(wire.Endpoint{Addr: server.Addr, Port: 53}, from, 64, 0, reply)
			})
			return nil
		}
		return append([]byte("re:"), payload...)
	})
	var calls []string
	replier := func(name string) ReplyFuncs {
		return ReplyFuncs{
			OnReply:   func(_ *Network, p []byte) { calls = append(calls, name+" reply "+string(p)) },
			OnTimeout: func(*Network) { calls = append(calls, name+" timeout") },
		}
	}
	dst := wire.Endpoint{Addr: server.Addr, Port: 53}
	client.SendUDPRequest(n, dst, []byte("a"), UDPRequestOpts{Timeout: 100 * time.Millisecond, Replier: replier("a")})
	// The second request goes out after the first timed out and reuses its
	// waiter; its own reply returns before the first one's late reply.
	n.Schedule(200*time.Millisecond, func() {
		client.SendUDPRequest(n, dst, []byte("b"), UDPRequestOpts{Timeout: 5 * time.Second, Replier: replier("b")})
	})
	n.RunUntilIdle()
	want := []string{"a timeout", "b reply re:b"}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("replier calls %q, want %q", calls, want)
	}
	if len(client.freeWaiters) != 1 {
		t.Errorf("%d pooled waiters, want the one both requests shared", len(client.freeWaiters))
	}
}

// TestReplierExactlyOnceAcrossPortReuse reissues an outstanding
// request's ephemeral port to a second request to the same destination,
// so the second takes over the first's waiter key. The first, never
// answered, must still see its Timeout, once, and the second its reply.
func TestReplierExactlyOnceAcrossPortReuse(t *testing.T) {
	n := New(Config{Start: t0})
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 53))
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, payload []byte) []byte {
		if string(payload) == "a" {
			return nil // never answered
		}
		return append([]byte("re:"), payload...)
	})
	var calls []string
	replier := func(name string) ReplyFuncs {
		return ReplyFuncs{
			OnReply:   func(_ *Network, p []byte) { calls = append(calls, name+" reply "+string(p)) },
			OnTimeout: func(*Network) { calls = append(calls, name+" timeout") },
		}
	}
	dst := wire.Endpoint{Addr: server.Addr, Port: 53}
	first := client.SendUDPRequest(n, dst, []byte("a"), UDPRequestOpts{Timeout: 10 * time.Second, Replier: replier("a")})
	for i := 0; i < 1<<15-1; i++ {
		client.allocPort()
	}
	if second := client.SendUDPRequest(n, dst, []byte("b"), UDPRequestOpts{Timeout: 20 * time.Second, Replier: replier("b")}); second != first {
		t.Fatalf("second request got port %d, want the first's %d", second, first)
	}
	n.RunUntilIdle()
	want := []string{"b reply re:b", "a timeout"}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("replier calls %q, want %q", calls, want)
	}
}

// TestArenaCarriesQueueBackings drains a world whose entries filled both
// lanes, harvests it, and builds the next world on the arena: the heap
// and hop-lane backings must move to it, holding no Action or arg.
func TestArenaCarriesQueueBackings(t *testing.T) {
	arena := &Arena{}
	first := New(Config{Start: t0, Arena: arena})
	var log []int
	for i := 0; i < 300; i++ {
		first.ScheduleAction(DefaultHopLatency, logAction{log: &log}, i)
		first.ScheduleAction(time.Duration(i)*time.Second, logAction{log: &log}, i)
	}
	first.RunUntilIdle()
	arena.Harvest(first)
	heapCap, laneLen := cap(arena.heapBacking), len(arena.laneBacking)
	if heapCap < 300 || laneLen < 300 {
		t.Fatalf("harvest kept heap cap %d and lane ring %d, want both >= 300", heapCap, laneLen)
	}
	for i, x := range arena.heapBacking[:heapCap] {
		if x != (heapEntry{}) {
			t.Fatalf("harvested heap slot %d still holds %+v", i, x)
		}
	}
	for i, x := range arena.laneBacking {
		if x != (heapEntry{}) {
			t.Fatalf("harvested lane slot %d still holds %+v", i, x)
		}
	}
	second := New(Config{Start: t0, Arena: arena})
	if cap(second.events) != heapCap || len(second.lane.ring) != laneLen {
		t.Fatalf("next world got heap cap %d and lane ring %d, want %d and %d",
			cap(second.events), len(second.lane.ring), heapCap, laneLen)
	}
	if arena.heapBacking != nil || arena.laneBacking != nil {
		t.Fatal("arena kept the backings it handed on")
	}
}

// chainAction reschedules itself from Fire with the next arg, a
// pseudo-random number of hops ahead.
type chainAction struct{ x uint32 }

func (c *chainAction) Fire(n *Network, arg int) {
	c.x ^= c.x << 13
	c.x ^= c.x >> 17
	c.x ^= c.x << 5
	d := DefaultHopLatency
	if c.x%100 >= 91 {
		d *= time.Duration(2 + (c.x>>8)%30)
	}
	n.ScheduleAction(d, c, arg+1)
}

// BenchmarkScheduleAction measures typed-action dispatch at Phase II
// depth on Phase II's lane mix, as BenchmarkHopLane does for closures:
// 65,536 entries in flight, each Fire scheduling its successor. The
// entry carries the action and its arg inline, so once the heap and lane
// are warm, dispatch must not allocate.
func BenchmarkScheduleAction(b *testing.B) {
	const depth = 1 << 16
	n := New(Config{Start: t0})
	c := &chainAction{x: 2463534242}
	for i := 0; i < depth; i++ {
		n.ScheduleAction(DefaultHopLatency, c, 0)
	}
	n.SetMaxEvents(4 * depth)
	n.RunUntilIdle()
	n.SetMaxEvents(n.Stats().Events + int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	if got := n.RunUntilIdle(); got != int64(b.N) {
		b.Fatalf("dispatched %d events, want %d", got, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
