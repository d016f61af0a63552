package netsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"shadowmeter/internal/telemetry"
)

// queueProbe drives a Network through random Schedule calls and keeps the
// reference model the queue must match: every scheduled item with its
// dispatch instant and its schedule order (the tiebreak the network's seq
// encodes), the order in which items actually ran, which items belong in
// the hop lane, and the most items ever outstanding at once.
type queueProbe struct {
	t      *testing.T
	n      *Network
	rng    *rand.Rand
	delays []time.Duration
	at     []time.Time // each item's dispatch instant, indexed by id = schedule order
	hop    []bool      // whether each item was scheduled exactly one hop latency ahead
	log    []int       // ids in dispatch order
	inLane int         // hop items scheduled and not yet dispatched
	peak   int         // most items outstanding at once
	limit  int         // handlers stop spawning work past this many items
}

// probeDelays is weighted toward a few values, so many items share a
// timestamp, and includes zero and negative delays (which run at the
// current instant) and hop, the network's hop latency, which selects the
// hop lane. DefaultHopLatency is always among them, so a network with a
// different hop latency must keep those items in the heap.
func probeDelays(hop time.Duration) []time.Duration {
	return []time.Duration{
		-time.Second, -1, 0, 0, 0, time.Nanosecond,
		time.Millisecond, time.Millisecond, DefaultHopLatency, hop, hop,
		3 * hop, time.Second,
	}
}

func (p *queueProbe) schedule() {
	d := p.delays[p.rng.Intn(len(p.delays))]
	id := len(p.at)
	hop := d == p.n.hopLatency
	p.at = append(p.at, p.n.Now().Add(max(d, 0)))
	p.hop = append(p.hop, hop)
	if hop {
		p.inLane++
	}
	p.peak = max(p.peak, len(p.at)-len(p.log))
	p.n.Schedule(d, func() { p.fire(id) })
}

// fire is an item's handler: it logs the dispatch, checks the clock, and
// sometimes schedules more work from inside the event loop.
func (p *queueProbe) fire(id int) {
	p.log = append(p.log, id)
	if p.hop[id] {
		p.inLane--
	}
	if got, want := p.n.Now(), p.at[id]; !got.Equal(want) {
		p.t.Fatalf("item %d ran at %v, scheduled for %v", id, got, want)
	}
	if len(p.at) < p.limit {
		for k := p.rng.Intn(3); k > 0; k-- {
			p.schedule()
		}
	}
}

// check asserts the dispatch log is a prefix of all known items sorted by
// (at, schedule order), that Pending counts the rest, that exactly the
// outstanding hop items wait in the hop lane, and that the queue-peak gauge
// matches the model's high-water mark. New items always
// sort after the running one (their at is no earlier, their seq larger),
// so the prefix property holds at every point, not only at the end.
func (p *queueProbe) check(stage string) {
	p.t.Helper()
	ref := make([]int, len(p.at))
	for i := range ref {
		ref[i] = i
	}
	sort.SliceStable(ref, func(i, j int) bool { return p.at[ref[i]].Before(p.at[ref[j]]) })
	for i, id := range p.log {
		if ref[i] != id {
			p.t.Fatalf("%s: dispatch %d ran item %d, reference order wants %d", stage, i, id, ref[i])
		}
	}
	if got, want := p.n.Pending(), len(p.at)-len(p.log); got != want {
		p.t.Fatalf("%s: Pending = %d, want %d", stage, got, want)
	}
	if got := p.n.lane.n; got != p.inLane {
		p.t.Fatalf("%s: hop lane holds %d entries, want %d", stage, got, p.inLane)
	}
	if got := p.n.m.queuePeak.Value(); got != int64(p.peak) {
		p.t.Fatalf("%s: netsim_event_queue_peak = %d, want %d", stage, got, p.peak)
	}
}

// runQueueScenario schedules a random workload on n and drains it through
// a deadline-bounded Run, a maxEvents-truncated Run, a second Run and a
// final RunUntilIdle, checking the order after each. It returns the
// dispatch log.
func runQueueScenario(t *testing.T, n *Network, seed int64) []int {
	p := &queueProbe{
		t: t, n: n, rng: rand.New(rand.NewSource(seed)),
		delays: probeDelays(n.hopLatency), limit: 3000,
	}
	for i := 0; i < 300; i++ {
		p.schedule()
	}
	p.check("initial")

	// A deadline inside the queue stops there and fast-forwards the clock.
	deadline := t0.Add(20 * time.Millisecond)
	n.Run(deadline)
	p.check("deadline run")
	if n.Pending() == 0 || len(p.log) == 0 {
		t.Fatalf("deadline run should stop mid-queue: %d ran, %d pending", len(p.log), n.Pending())
	}
	if !n.Now().Equal(deadline) {
		t.Fatalf("after deadline run Now = %v, want %v", n.Now(), deadline)
	}

	// The maxEvents valve truncates a run; the clock stays at the last
	// dispatched item rather than jumping to the deadline.
	before := len(p.log)
	n.SetMaxEvents(n.Stats().Events + 50)
	if got := n.Run(t0.Add(time.Hour)); got != 50 {
		t.Fatalf("truncated run processed %d, want 50", got)
	}
	p.check("truncated run")
	if last := p.at[p.log[len(p.log)-1]]; !n.Now().Equal(last) || len(p.log) != before+50 {
		t.Fatalf("truncated run: Now = %v, want last dispatch %v", n.Now(), last)
	}

	// Work added between runs, then a second bounded run and a full drain.
	n.SetMaxEvents(0)
	for i := 0; i < 50; i++ {
		p.schedule()
	}
	p.check("between runs")
	n.Run(n.Now().Add(5 * time.Millisecond))
	p.check("second run")
	n.RunUntilIdle()
	p.check("drained")
	if n.Pending() != 0 {
		t.Fatalf("drained queue has %d pending", n.Pending())
	}
	return p.log
}

// The hop lane is keyed on the network's own hop latency: with a 3 ms hop,
// 3 ms items take the lane and DefaultHopLatency items stay in the heap.
// check asserts the lane's exact occupancy at every stage.
func TestEventQueueMatchesReferenceOrder(t *testing.T) {
	for _, hop := range []time.Duration{DefaultHopLatency, 3 * time.Millisecond} {
		for seed := int64(1); seed <= 20; seed++ {
			runQueueScenario(t, New(Config{Start: t0, HopLatency: hop}), seed)
		}
	}
}

// TestHopLaneGrowsAcrossWrap fills a ring whose head has wrapped past its
// start, so growth must unroll the entries oldest first.
func TestHopLaneGrowsAcrossWrap(t *testing.T) {
	var l hopLane
	next, want := int64(0), int64(0)
	push := func(k int) {
		for ; k > 0; k-- {
			next++
			l.push(heapEntry{atNS: next, seq: next})
		}
	}
	pop := func(k int) {
		for ; k > 0; k-- {
			want++
			if x := l.pop(); x.seq != want {
				t.Fatalf("pop returned seq %d, want %d", x.seq, want)
			}
		}
	}
	push(50)
	pop(40)
	push(200) // wraps past slot 63, grows with head at 40, then again
	if len(l.ring) != 256 || l.n != 210 {
		t.Fatalf("ring len %d holding %d, want 256 holding 210", len(l.ring), l.n)
	}
	pop(210)
	for i, x := range l.ring {
		if x != (heapEntry{}) {
			t.Fatalf("drained ring slot %d still holds %+v", i, x)
		}
	}
}

func TestEventQueueArenaReuse(t *testing.T) {
	// A world built on a harvested arena must dispatch exactly as a fresh
	// world does, and the harvested heap and lane backings must pin no
	// events.
	const seed = 7
	want := runQueueScenario(t, New(Config{Start: t0}), seed)

	arena := &Arena{}
	first := New(Config{Start: t0, Arena: arena})
	runQueueScenario(t, first, seed+1)
	arena.Harvest(first)
	if cap(arena.heapBacking) == 0 {
		t.Fatal("harvest of a drained world kept no heap backing")
	}
	for i, x := range arena.heapBacking[:cap(arena.heapBacking)] {
		if x != (heapEntry{}) {
			t.Fatalf("harvested heap slot %d still holds %+v", i, x)
		}
	}
	if len(arena.laneBacking) == 0 {
		t.Fatal("harvest of a drained world kept no hop-lane ring")
	}
	for i, x := range arena.laneBacking {
		if x != (heapEntry{}) {
			t.Fatalf("harvested hop-lane slot %d still holds %+v", i, x)
		}
	}

	got := runQueueScenario(t, New(Config{Start: t0, Arena: arena}), seed)
	if len(got) != len(want) {
		t.Fatalf("arena world dispatched %d items, fresh world %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arena world diverged at dispatch %d: item %d, fresh world ran %d", i, got[i], want[i])
		}
	}
}

// BenchmarkEventQueue measures dispatch at Phase II queue depth: 65,536
// pending events spaced by DefaultHopLatency, each dispatch scheduling one
// successor a pseudo-random number of hops ahead, so the queue stays full
// and every push and pop sifts through it. BenchmarkEventLoop, with one
// event pending, never sifts. The steady state must not allocate.
func BenchmarkEventQueue(b *testing.B) {
	const depth = 1 << 16
	n := New(Config{Start: t0})
	x := uint32(2463534242)
	var tick func()
	tick = func() {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		n.Schedule(time.Duration(1+x%depth)*DefaultHopLatency, tick)
	}
	for i := 1; i <= depth; i++ {
		n.Schedule(time.Duration(i)*DefaultHopLatency, tick)
	}
	n.SetMaxEvents(int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	if got := n.RunUntilIdle(); got != int64(b.N) {
		b.Fatalf("dispatched %d events, want %d", got, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

// BenchmarkHopLane measures dispatch at Phase II depth on Phase II's mix:
// 65,536 events in flight, about 91% of dispatches scheduling their
// successor exactly one hop latency ahead (the hop lane) and the rest a
// few hops further, as an ICMP reply returning over the probe's distance
// does (the heap). BenchmarkEventQueue keeps covering the heap alone. A
// warm-up of four full queue turnovers reaches the steady-state lane and
// heap sizes before timing; from there dispatch must not allocate.
func BenchmarkHopLane(b *testing.B) {
	const depth = 1 << 16
	n := New(Config{Start: t0})
	x := uint32(2463534242)
	var tick func()
	tick = func() {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		d := DefaultHopLatency
		if x%100 >= 91 {
			d *= time.Duration(2 + (x>>8)%30)
		}
		n.Schedule(d, tick)
	}
	for i := 0; i < depth; i++ {
		n.Schedule(DefaultHopLatency, tick)
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

// TestScheduleSeriesMatchesSchedule runs one schedule twice: once as
// Schedule calls, once with the same initial events as a ScheduleSeries
// block. Handlers spawn follow-up work (some one hop latency ahead, some
// not, some at the current instant), so series events interleave with
// both lanes and tie with them on time. The dispatch order, the clock at
// each dispatch, Pending, and every exported metric must be identical.
func TestScheduleSeriesMatchesSchedule(t *testing.T) {
	type trace struct {
		log     []int
		pending []int
		export  []byte
	}
	run := func(useSeries bool) trace {
		tele := telemetry.NewSet()
		n := New(Config{Start: time.Unix(1_700_000_000, 0), Telemetry: tele})
		rng := rand.New(rand.NewSource(5))
		var tr trace
		nextID := 1000
		var fire func(id int)
		fire = func(id int) {
			tr.log = append(tr.log, id)
			tr.pending = append(tr.pending, n.Pending(), int(n.Now().UnixNano()%1_000_000_007))
			if nextID < 4000 {
				for k := rng.Intn(3); k > 0; k-- {
					d := []time.Duration{0, n.hopLatency, n.hopLatency, time.Millisecond, 3 * time.Second}[rng.Intn(5)]
					id := nextID
					nextID++
					n.Schedule(d, func() { fire(id) })
				}
			}
		}
		// A warm-up event first, so the series is scheduled from a clock
		// past the start, as Phase I is after screening.
		n.Schedule(1500*time.Millisecond, func() {})
		n.RunUntilIdle()
		delays := make([]time.Duration, 1000)
		for i := range delays {
			delays[i] = []time.Duration{-time.Second, 0, n.hopLatency, time.Duration(rng.Intn(40)) * 100 * time.Millisecond}[rng.Intn(4)]
		}
		if useSeries {
			n.ScheduleSeries(len(delays), func(i int) time.Duration { return delays[i] }, fire)
		} else {
			for i, d := range delays {
				n.Schedule(d, func() { fire(i) })
			}
		}
		n.Run(n.Now().Add(2 * time.Second))
		n.RunUntilIdle()
		if n.Pending() != 0 {
			t.Fatalf("series=%v: %d events pending after RunUntilIdle", useSeries, n.Pending())
		}
		tr.export = tele.ExportJSON()
		return tr
	}
	closures, series := run(false), run(true)
	if len(closures.log) < 3000 {
		t.Fatalf("only %d events dispatched", len(closures.log))
	}
	if !reflect.DeepEqual(closures.log, series.log) {
		t.Fatal("dispatch order differs between Schedule and ScheduleSeries")
	}
	if !reflect.DeepEqual(closures.pending, series.pending) {
		t.Fatal("Pending or the clock at dispatch differs between Schedule and ScheduleSeries")
	}
	if !bytes.Equal(closures.export, series.export) {
		t.Errorf("telemetry differs:\n--- Schedule ---\n%s\n--- ScheduleSeries ---\n%s", closures.export, series.export)
	}
}
