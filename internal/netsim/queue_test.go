package netsim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// queueProbe drives a Network through random Schedule calls and keeps the
// reference model the queue must match: every scheduled item with its
// dispatch instant and its schedule order (the tiebreak the network's seq
// encodes), and the order in which items actually ran.
type queueProbe struct {
	t     *testing.T
	n     *Network
	rng   *rand.Rand
	at    []time.Time // each item's dispatch instant, indexed by id = schedule order
	log   []int       // ids in dispatch order
	limit int         // handlers stop spawning work past this many items
}

// probeDelays is weighted toward a few values, so many items share a
// timestamp, and includes zero and negative delays (which run at the
// current instant).
var probeDelays = []time.Duration{
	-time.Second, -1, 0, 0, 0, time.Nanosecond,
	time.Millisecond, time.Millisecond, DefaultHopLatency, DefaultHopLatency,
	3 * DefaultHopLatency, time.Second,
}

func (p *queueProbe) schedule() {
	d := probeDelays[p.rng.Intn(len(probeDelays))]
	id := len(p.at)
	p.at = append(p.at, p.n.Now().Add(max(d, 0)))
	p.n.Schedule(d, func() { p.fire(id) })
}

// fire is an item's handler: it logs the dispatch, checks the clock, and
// sometimes schedules more work from inside the event loop.
func (p *queueProbe) fire(id int) {
	p.log = append(p.log, id)
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
// (at, schedule order), and that Pending counts the rest. New items always
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
}

// runQueueScenario schedules a random workload on n and drains it through
// a deadline-bounded Run, a maxEvents-truncated Run, a second Run and a
// final RunUntilIdle, checking the order after each. It returns the
// dispatch log.
func runQueueScenario(t *testing.T, n *Network, seed int64) []int {
	p := &queueProbe{t: t, n: n, rng: rand.New(rand.NewSource(seed)), limit: 3000}
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

func TestEventQueueMatchesReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		runQueueScenario(t, New(Config{Start: t0}), seed)
	}
}

func TestEventQueueArenaReuse(t *testing.T) {
	// A world built on a harvested arena must dispatch exactly as a fresh
	// world does, and the harvested heap backing must pin no events.
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
