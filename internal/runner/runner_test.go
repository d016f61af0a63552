package runner

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"shadowmeter/internal/core"
	"shadowmeter/internal/runstore"
)

// tinyCore keeps trials fast while exercising the full pipeline.
func tinyCore() core.Config {
	return core.Config{
		VPsPerGlobalProvider: 2,
		VPsPerCNProvider:     1,
		WebSites:             30,
		WebASes:              8,
		DNSRounds:            1,
		MaxSweepsPerProtocol: 40,
	}
}

// TestRunnerDeterminism is the batch-level determinism contract: the
// same seeds must produce byte-identical merged output at any worker
// count. Worker scheduling decides only who runs a trial; the streaming
// consumer folds strictly in trial order, so neither what a trial
// computes nor where its result lands can depend on the pool size.
func TestRunnerDeterminism(t *testing.T) {
	run := func(workers int) (*Result, []byte, []byte) {
		res := Run(Config{Trials: 4, Workers: workers, BaseSeed: 11, Core: tinyCore()})
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return res, js, res.MergedTelemetryJSON()
	}
	serial, serialJSON, serialTele := run(1)
	if len(serial.Trials) != 4 {
		t.Fatalf("trial count = %d, want 4", len(serial.Trials))
	}
	for _, workers := range []int{4, 16} {
		parallel, parallelJSON, parallelTele := run(workers)
		if !bytes.Equal(serialJSON, parallelJSON) {
			t.Errorf("batch JSON differs between workers=1 and workers=%d:\n--- 1\n%s\n--- %d\n%s", workers, serialJSON, workers, parallelJSON)
		}
		if !bytes.Equal(serialTele, parallelTele) {
			t.Errorf("merged telemetry differs between workers=1 and workers=%d", workers)
		}
		if len(parallel.Trials) != 4 {
			t.Fatalf("workers=%d trial count = %d, want 4", workers, len(parallel.Trials))
		}
		for i, tr := range parallel.Trials {
			if tr.Trial != i || tr.Seed != 11+int64(i) {
				t.Errorf("trial %d: got trial=%d seed=%d", i, tr.Trial, tr.Seed)
			}
			if len(tr.Headline) == 0 || tr.Resumed {
				t.Errorf("trial %d missing headline or wrongly marked resumed", i)
			}
			// The streaming consumer must have dropped the heavy artifacts.
			if tr.Metrics != nil || tr.Spans != nil || tr.Events != nil {
				t.Errorf("trial %d retained heavy artifacts after fold", i)
			}
		}
		if parallel.PeakHeapBytes == 0 {
			t.Errorf("workers=%d recorded no peak heap high-water", workers)
		}
	}
}

// TestBlueprintDeterminism is the shared-topology contract: worlds
// instantiated from one campaign blueprint must be byte-identical to
// cold-built worlds, at any worker count. A one-trial run never builds a
// blueprint, so four one-trial slices give the cold reference. The
// store log carries each trial's headline, metrics, spans and events, so
// the batch's trials.log must equal the four one-trial logs
// concatenated. The blueprint may only share seed-independent
// construction; any leak of mutable state between trials shows up here
// as a diff.
func TestBlueprintDeterminism(t *testing.T) {
	small := tinyCore()
	small.WebSites = 20
	small.MaxSweepsPerProtocol = 20
	const trials, baseSeed = 4, 29
	man := runstore.Manifest{
		Version:    runstore.StoreVersion,
		ConfigHash: CampaignHash(small),
		BaseSeed:   baseSeed,
		Trials:     trials,
		Scale:      "test",
	}
	// runLog runs each slice into one fresh store and returns its log.
	runLog := func(workers int, slices ...Slice) []byte {
		dir := t.TempDir()
		st, err := runstore.Create(dir, man, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range slices {
			res := Run(Config{Trials: trials, Workers: workers, BaseSeed: baseSeed, Core: small, Store: st, Slice: s})
			if res.StoreErr != nil {
				t.Fatal(res.StoreErr)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(runstore.LogPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var cold []Slice
	for tr := 0; tr < trials; tr++ {
		cold = append(cold, Slice{From: tr, To: tr + 1})
	}
	ref := runLog(1, cold...)
	for _, workers := range []int{1, 4} {
		if got := runLog(workers, Slice{}); !bytes.Equal(ref, got) {
			t.Errorf("blueprint workers=%d: trials.log differs from the cold-built one-trial runs", workers)
		}
	}
}

// aggregate folds per-trial headlines into mean/min/max per key — the
// batch-shaped wrapper over the streaming fold, the reference the
// aggregate tests drive.
func aggregate(trials []Trial) map[string]Stat {
	agg := newHeadlineAgg()
	for _, t := range trials {
		agg.fold(t.Headline)
	}
	return agg.finalize(len(trials))
}

func TestAggregateStats(t *testing.T) {
	trials := []Trial{
		{Headline: map[string]float64{"a": 1, "b": 4}},
		{Headline: map[string]float64{"a": 3}}, // "b" missing -> 0
	}
	agg := aggregate(trials)
	if a := agg["a"]; a.Mean != 2 || a.Min != 1 || a.Max != 3 || a.Count != 2 {
		t.Errorf("a = %+v", a)
	}
	if b := agg["b"]; b.Mean != 2 || b.Min != 0 || b.Max != 4 || b.Count != 1 {
		t.Errorf("b = %+v", b)
	}
}

// TestAggregateStreamingMatchesBatch drives the online fold through the
// awkward shapes — keys first seen mid-batch, keys vanishing, negative
// values, a key missing everywhere but one trial — and checks it against
// the semantics the batch pass always had.
func TestAggregateStreamingMatchesBatch(t *testing.T) {
	trials := []Trial{
		{Headline: map[string]float64{"pos": 2}},
		{Headline: map[string]float64{"pos": 6, "late": 5, "neg": -3}},
		{Headline: map[string]float64{"pos": 1, "neg": -1}},
	}
	agg := aggregate(trials)
	if p := agg["pos"]; p.Mean != 3 || p.Min != 1 || p.Max != 6 || p.Count != 3 {
		t.Errorf("pos = %+v", p)
	}
	// "late" first appears at trial 1: trials 0 and 2 contribute 0, so the
	// min clamps to 0 even though every observed value is positive.
	if l := agg["late"]; l.Mean != 5.0/3 || l.Min != 0 || l.Max != 5 || l.Count != 1 {
		t.Errorf("late = %+v", l)
	}
	// "neg" is negative where present: the implicit 0 becomes the max.
	if n := agg["neg"]; n.Mean != -4.0/3 || n.Min != -3 || n.Max != 0 || n.Count != 2 {
		t.Errorf("neg = %+v", n)
	}
}

// TestMemoryFlatBatch is the memory-flat acceptance gate: quadrupling the
// trial count must not quadruple the consumer's peak heap, because each
// trial's report, snapshots, and events are dropped as soon as they are
// folded. The 2× margin absorbs GC timing noise while still failing
// decisively if per-trial artifacts are ever retained again (which
// scales the peak roughly linearly in trials).
func TestMemoryFlatBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial batches are slow")
	}
	peak := func(trials int) uint64 {
		runtime.GC() // level the floor so high-waters are comparable
		res := Run(Config{Trials: trials, Workers: 1, BaseSeed: 101, Core: tinyCore()})
		if res.PeakHeapBytes == 0 {
			t.Fatalf("%d-trial batch recorded no peak heap", trials)
		}
		return res.PeakHeapBytes
	}
	peak2 := peak(2)
	peak8 := peak(8)
	if peak8 > 2*peak2 {
		t.Errorf("peak heap grew with trial count: 2 trials = %d bytes, 8 trials = %d bytes (limit 2x)", peak2, peak8)
	}
}

// TestWorkerClampReported: a pool larger than the plan clamps to one
// worker per trial, and both the campaign snapshot and the occupancy
// report must say so — speedup series divide wall times by the worker
// count, so a phantom pool size would corrupt the whole series.
func TestWorkerClampReported(t *testing.T) {
	m := NewMonitor(MonitorOptions{})
	Run(Config{Trials: 2, Workers: 16, BaseSeed: 41, Core: tinyCore(), Monitor: m})
	snap := m.Campaign()
	if snap.Workers != 2 || snap.RequestedWorkers != 16 {
		t.Errorf("campaign workers = %d (requested %d), want 2 (requested 16)", snap.Workers, snap.RequestedWorkers)
	}
	occ := m.Occupancy()
	if occ.EffectiveWorkers != 2 || occ.RequestedWorkers != 16 {
		t.Errorf("occupancy workers = %d effective (requested %d), want 2 (requested 16)", occ.EffectiveWorkers, occ.RequestedWorkers)
	}
	if len(occ.Workers) != 2 {
		t.Errorf("occupancy lists %d workers, want 2", len(occ.Workers))
	}
	if occ.PeakHeapBytes == 0 {
		t.Error("occupancy report missing peak heap high-water")
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	// Distinct seeds must build distinct worlds: if every trial reported
	// identical packet counts the batch would be re-measuring one world.
	res := Run(Config{Trials: 3, Workers: 3, BaseSeed: 5, Core: tinyCore()})
	first := res.Trials[0].Headline["packets_sent"]
	diverged := false
	for _, tr := range res.Trials[1:] {
		if tr.Headline["packets_sent"] != first {
			diverged = true
		}
	}
	if !diverged {
		t.Error("all trials produced identical packet counts; seeds not applied")
	}
}

// BenchmarkTrials is the repo's recorded multi-trial throughput
// baseline: an 8-trial batch through the worker pool, with the shared
// topology blueprint in play exactly as production batches run it.
// Note: per-op numbers are for the whole 8-trial batch; divide by 8 to
// compare against snapshots taken when the benchmark ran 4 trials.
func BenchmarkTrials(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Run(Config{Trials: 8, Workers: workers, BaseSeed: int64(i * 8), Core: tinyCore()})
			}
		})
	}
}
