// Package runner executes many independent experiment trials in
// parallel and merges their results deterministically.
//
// Measurement studies in this space need repeated independent
// measurements to separate shadowing signal from routing noise, so the
// reproduction's real unit of work is a batch of trials, not one run.
// Each trial is a complete core experiment world with its own seed,
// telemetry set, and virtual clock, executed on a single goroutine
// exactly as a solo run would be — per-seed determinism is untouched.
// Parallelism exists only *between* worlds.
//
// The batch is a streaming pipeline, not collect-then-aggregate: workers
// hand each completed trial over a channel to a single consumer, which
// reorders by trial index, persists the record, folds the headline into
// the online aggregate and the telemetry into the running merge, then
// drops the trial's heavy artifacts. Peak memory is O(workers), not
// O(trials), and because the consumer folds in strict trial order the
// batch output is byte-identical for any worker count. A ticket
// semaphore (released per fold) keeps the producer from racing ahead of
// a straggling trial, bounding the reorder buffer the same way.
package runner

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"shadowmeter/internal/core"
	"shadowmeter/internal/correlate"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/runstore"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/topology"
)

// Config parameterizes a multi-trial batch.
type Config struct {
	// Trials is the number of independent worlds. Zero or negative means 1.
	Trials int
	// Workers bounds concurrent worlds. Zero or negative means one worker
	// per trial. The choice affects wall-clock time only, never output.
	Workers int
	// BaseSeed seeds trial t with BaseSeed + t.
	BaseSeed int64
	// Core is the per-trial experiment template; its Seed field is
	// overwritten per trial.
	Core core.Config

	// Store, when non-nil, persists each completed trial as it finishes —
	// the batch becomes a checkpointed campaign that survives
	// interruption. The streaming consumer persists trials as it folds
	// them, so records land in trial order regardless of worker count.
	Store *runstore.Store
	// Resume serves trials whose (trial, seed, config-hash) record is
	// already in Store instead of re-running them. Because trials are
	// per-seed deterministic, a resumed batch produces byte-identical
	// output to a cold run. Requires Store.
	Resume bool

	// Slice restricts the run to a window of the trial plan — the shard
	// data plane. The zero value means the full plan [0, Trials). Trial
	// indexes and seeds stay absolute (trial t is still seeded
	// BaseSeed + t), so the union of disjoint slices is byte-identical
	// to one unsharded run.
	Slice Slice

	// Monitor, when non-nil, receives live campaign callbacks: bus
	// events, worker-occupancy accounting, and flight-recorder triggers.
	// The monitor only ever receives copies and snapshots taken by each
	// trial's own goroutine, so batch output is byte-identical with or
	// without it (CI-enforced by the -watch on/off diff in check.sh).
	Monitor *Monitor
}

// Slice is a half-open window [From, To) of a campaign's trial plan.
// The zero value means "the whole plan".
type Slice struct {
	From int
	To   int
}

// ShardSlice splits a trial plan of the given size into count balanced
// contiguous slices and returns the index-th: [i·T/N, (i+1)·T/N). Every
// trial belongs to exactly one shard, and slice sizes differ by at most
// one, so any shard geometry partitions the plan.
func ShardSlice(trials, index, count int) Slice {
	return Slice{From: trials * index / count, To: trials * (index + 1) / count}
}

// EffectiveWorkers is the pool size a batch of trials actually runs
// with: the requested count clamped to one worker per trial (a larger
// pool would only idle). Zero or negative requests one worker per trial.
// Exported so cmd/ can report the real pool without re-deriving the
// clamp.
func EffectiveWorkers(trials, workers int) int {
	if workers <= 0 || workers > trials {
		return trials
	}
	return workers
}

// window normalizes cfg.Slice against the trial count: the zero slice
// (or any out-of-range bound) clamps to the full plan.
func window(trials int, s Slice) Slice {
	if s.From < 0 {
		s.From = 0
	}
	if s.To <= 0 || s.To > trials {
		s.To = trials
	}
	if s.From > s.To {
		s.From = s.To
	}
	return s
}

// Trial is the outcome of one world. In a Result only the identity and
// Headline survive: the heavy artifacts below ride the worker→consumer
// channel and are dropped once persisted and folded, so a batch's memory
// does not grow with its trial count.
type Trial struct {
	Trial int   `json:"trial"`
	Seed  int64 `json:"seed"`
	// Headline flattens the report's aggregation-worthy artifacts into
	// named scalars: Figure 3 ratios keyed "figure3_ratio/<country>/<proto>",
	// Table 2/3 counts keyed "table2_located/<proto>" and
	// "table3_observers/<proto>", and campaign totals.
	Headline map[string]float64 `json:"headline"`

	// Metrics and Spans are the trial's telemetry snapshot. They are the
	// worker→consumer payload; in a Result they are nil (the consumer
	// folds them into the batch-wide merge and drops them).
	Metrics []telemetry.Metric    `json:"-"`
	Spans   []telemetry.SpanStats `json:"-"`

	// Events is the compact unsolicited-event log persisted for
	// cross-campaign retention analysis. Populated only when the batch
	// runs against a store; nil in a Result (read it back from the store).
	Events []runstore.EventRecord `json:"-"`
	// Resumed marks a trial served from the campaign store instead of run.
	Resumed bool `json:"-"`
	// StoreErr records a failed persist of this trial.
	StoreErr error `json:"-"`
}

// Stat is the cross-trial aggregate of one headline scalar.
type Stat struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// Count is the number of trials whose headline carries the key. A
	// Count below the batch's trial count means the documented
	// missing-keys-contribute-0 quirk applied to this aggregate.
	Count int `json:"count"`
}

// Result is a completed batch.
type Result struct {
	Trials []Trial `json:"trials"`
	// Aggregate maps each headline key (union across trials; trials
	// missing a key contribute 0) to its mean/min/max.
	Aggregate map[string]Stat `json:"aggregate"`
	// StoreErr is the first per-trial persist failure, if any. The batch
	// output is still complete — every trial ran — but the campaign on
	// disk is missing records and must not be trusted for resume.
	StoreErr error `json:"-"`
	// PeakHeapBytes is the consumer's HeapAlloc high-water mark, sampled
	// once per folded trial — the number the memory-flat gate tracks.
	PeakHeapBytes uint64 `json:"-"`

	mergedMetrics []telemetry.Metric
	mergedSpans   []telemetry.SpanStats
}

// finishedTrial is the worker→consumer hand-off: the trial plus the
// store-record fields that only exist while the world is alive.
type finishedTrial struct {
	Trial
	vStartNS int64
	vEndNS   int64
	ran      bool // false when served from the store on resume
}

// Run executes the batch and blocks until every trial completes.
func Run(cfg Config) *Result {
	trials := cfg.Trials
	if trials <= 0 {
		trials = 1
	}
	span := window(trials, cfg.Slice)
	n := span.To - span.From
	workers := EffectiveWorkers(n, cfg.Workers)
	hash := ""
	if cfg.Store != nil {
		hash = CampaignHash(cfg.Core)
	}
	if cfg.Core.Topo == nil && n > 1 {
		// One blueprint per campaign: trials share the read-only AS/router
		// graph and geo trie, and instantiate only per-world mutable state.
		// A single trial skips the snapshot — cold build is cheaper once.
		cfg.Core.Topo = topology.NewBlueprint(topology.Config{})
	}

	if m := cfg.Monitor; m != nil {
		info := CampaignInfo{Trials: n, First: span.From, Workers: workers, RequestedWorkers: cfg.Workers, BaseSeed: cfg.BaseSeed, ConfigHash: hash}
		if cfg.Store != nil {
			info.StoreDir = cfg.Store.Dir()
		}
		m.campaignStarted(info)
	}

	// The pipeline. A producer goroutine issues trial indexes, workers run
	// worlds and hand finished trials to the consumer below, which runs on
	// this goroutine and folds in strict trial-index order. The ticket
	// semaphore — acquired per issue, released per fold — bounds
	// issued-but-unfolded trials at 2·workers, so a straggling trial
	// stalls the producer instead of growing the reorder buffer. No
	// deadlock: the oldest outstanding trial is never parked in pending
	// (the consumer folds it on arrival), so it is always either queued or
	// running, and folding it releases a ticket.
	jobs := make(chan int)
	completed := make(chan finishedTrial, workers)
	tickets := make(chan struct{}, 2*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if m := cfg.Monitor; m != nil {
				m.workerStarted(w)
				defer m.workerExited(w)
			}
			// One arena per worker: consecutive worlds on this goroutine
			// recycle flight, packet-buffer and queue allocations. Arenas
			// are never shared between live worlds, so determinism is
			// untouched.
			arena := &netsim.Arena{}
			for t := range jobs {
				completed <- runTrial(cfg, w, t, hash, arena)
			}
		}(w)
	}
	go func() {
		for t := span.From; t < span.To; t++ {
			tickets <- struct{}{}
			jobs <- t
		}
		close(jobs)
		wg.Wait()
		close(completed)
	}()

	res := &Result{Trials: make([]Trial, n)}
	agg := newHeadlineAgg()
	pending := make(map[int]finishedTrial, 2*workers)
	next := span.From
	var ms runtime.MemStats
	for ft := range completed {
		pending[ft.Trial.Trial] = ft
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			foldTrial(cfg, hash, res, agg, cur, next-span.From)
			next++
			// HeapAlloc high-water, sampled once per fold — the number
			// the memory-flat gate in runner tests and check.sh tracks.
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > res.PeakHeapBytes {
				res.PeakHeapBytes = ms.HeapAlloc
			}
			<-tickets
		}
	}
	res.Aggregate = agg.finalize(n)
	if m := cfg.Monitor; m != nil {
		m.setPeakHeap(res.PeakHeapBytes)
		m.campaignFinished()
	}
	return res
}

// foldTrial is the consumer's per-trial step: persist the record, fold
// the headline and telemetry into the running batch state, then drop the
// heavy artifacts so only the headline-bearing Trial survives.
func foldTrial(cfg Config, hash string, res *Result, agg *headlineAgg, ft finishedTrial, i int) {
	tr := ft.Trial
	if cfg.Store != nil && ft.ran {
		// VStart/VEnd bracket the trial's virtual time: the campaign
		// epoch and the simulator clock at completion. They feed the
		// store's columnar headline file for time-windowed analyses.
		ref, err := cfg.Store.AppendIndexed(runstore.TrialRecord{
			Trial:      tr.Trial,
			Seed:       tr.Seed,
			ConfigHash: hash,
			Headline:   tr.Headline,
			VStartNS:   ft.vStartNS,
			VEndNS:     ft.vEndNS,
			Events:     tr.Events,
			Metrics:    tr.Metrics,
			Spans:      tr.Spans,
		})
		tr.StoreErr = err
		if m := cfg.Monitor; m != nil {
			m.storeAppended(tr.Trial, ref, err)
		}
		if err != nil && res.StoreErr == nil {
			res.StoreErr = fmt.Errorf("trial %d: %w", tr.Trial, err)
		}
	}
	agg.fold(tr.Headline)
	res.mergedMetrics = telemetry.MergeSnapshots(res.mergedMetrics, tr.Metrics)
	res.mergedSpans = telemetry.MergeSpans(res.mergedSpans, tr.Spans)
	if m := cfg.Monitor; m != nil {
		// The single telemetry merge: the live /metrics view shares the
		// accumulators the final export renders.
		m.telemetryFolded(res.mergedMetrics, res.mergedSpans)
	}
	tr.Metrics, tr.Spans, tr.Events = nil, nil, nil
	res.Trials[i] = tr
}

// CampaignHash fingerprints the per-trial configuration: everything in
// the core config except the seed, which varies per trial and lives in
// each record instead. Two batches share a campaign store only if their
// hashes match.
func CampaignHash(cfg core.Config) string {
	cfg.Seed = 0
	h, err := runstore.HashJSON(cfg)
	if err != nil {
		// core.Config is plain data (ints, durations, a time.Time); its
		// JSON encoding cannot fail.
		panic(fmt.Sprintf("runner: hashing core config: %v", err))
	}
	return h
}

// runTrial executes one world start to finish on the calling goroutine —
// or, on resume, serves the trial from the store, which is
// indistinguishable in batch output because trials are per-seed
// deterministic. As the per-trial root, nothing it reaches may write
// cross-world shared state (enforced by the crossworld analyzer); the
// monitor hooks hand copies outward, never reach inward.
//
//shadowlint:trialpath
func runTrial(cfg Config, worker, t int, hash string, arena *netsim.Arena) finishedTrial {
	seed := cfg.BaseSeed + int64(t)
	if m := cfg.Monitor; m != nil {
		m.trialStarted(worker, t, seed)
		defer func() {
			// A panicking trial gets a flight dump before the panic
			// propagates — the world's span ring is the crash context.
			if r := recover(); r != nil {
				m.trialPanicked(t, fmt.Sprint(r))
				panic(r)
			}
		}()
	}
	if cfg.Store != nil && cfg.Resume {
		// Resume uses no events, so they are checked but not kept. A read
		// error means the index points at a frame that no longer decodes;
		// fall through and re-run — the Append collision below then
		// surfaces the store corruption as StoreErr instead of silently
		// dropping it.
		if rec, ok, err := cfg.Store.GetWithoutEvents(t); err == nil && ok && rec.Seed == seed && rec.ConfigHash == hash {
			cfg.Store.NoteResumeHit()
			if m := cfg.Monitor; m != nil {
				m.trialFinished(worker, t, seed, true, rec.Headline, rec.Spans)
			}
			return finishedTrial{Trial: Trial{
				Trial:    t,
				Seed:     seed,
				Headline: rec.Headline,
				Metrics:  rec.Metrics,
				Spans:    rec.Spans,
				Resumed:  true,
			}}
		}
	}

	coreCfg := cfg.Core
	coreCfg.Seed = seed
	// The worker's arena rides the core config (hash-excluded) down to
	// the world's network, recycling the previous trial's event and
	// flight allocations.
	coreCfg.Arena = arena
	e := core.NewExperiment(coreCfg)
	if m := cfg.Monitor; m != nil {
		m.attachWorld(t, e.Telemetry())
	}
	e.ScreenPairResolvers()
	e.RunPhaseI()
	e.RunPhaseII()
	report := e.Compile()
	tele := e.Telemetry()
	ft := finishedTrial{
		Trial: Trial{
			Trial:    t,
			Seed:     seed,
			Headline: headlineFrom(report),
			Metrics:  tele.Registry.Snapshot(),
			Spans:    tele.Tracer.Summary(),
		},
		vStartNS: e.World.Cfg.Start.UnixNano(),
		vEndNS:   e.World.Net.Now().UnixNano(),
		ran:      true,
	}
	if cfg.Store != nil {
		ft.Events = eventRecords(e.EventsPhaseI)
	}
	if m := cfg.Monitor; m != nil {
		m.trialFinished(worker, t, seed, false, ft.Headline, ft.Spans)
	}
	// The world is finished: reclaim its event/flight allocations for
	// this worker's next trial.
	arena.Harvest(e.World.Net)
	return ft
}

// eventRecords compacts the Phase I unsolicited events into the
// replayable form the store persists for retention analysis. Phase II
// events are TTL-limited location probes, not landscape observations,
// so they stay out of the longitudinal record.
func eventRecords(events []correlate.Unsolicited) []runstore.EventRecord {
	out := make([]runstore.EventRecord, 0, len(events))
	for _, u := range events {
		out = append(out, runstore.EventRecord{
			Label:        u.Sent.Label,
			SentProto:    u.Sent.Protocol.String(),
			CaptureProto: u.Capture.Protocol.String(),
			DstName:      u.Sent.DstName,
			DelayNS:      int64(u.Delay),
		})
	}
	return out
}

// headlineFrom flattens one report into the named scalars the batch
// aggregates: campaign totals, the Figure 3 problematic-path ratios, and
// the Table 2/3 observer counts.
func headlineFrom(r *core.Report) map[string]float64 {
	h := map[string]float64{
		"sent_decoys":       float64(r.CorrelatorStats.SentDecoys),
		"captures":          float64(r.CorrelatorStats.Captures),
		"unsolicited":       float64(r.CorrelatorStats.Unsolicited),
		"label_collisions":  float64(r.CorrelatorStats.LabelCollisions),
		"packets_sent":      float64(r.NetStats.PacketsSent),
		"observer_addrs":    float64(r.TotalObserverAddrs()),
		"cn_observer_share": r.CNObserverFraction(),
		"top5_coverage":     r.Top5Coverage,
	}
	for _, row := range r.Figure3 {
		h[fmt.Sprintf("figure3_ratio/%s/%s", row.Country, row.Protocol)] = row.Ratio
	}
	for dst, ratio := range r.DestRatios {
		h["dest_ratio/"+dst] = ratio
	}
	for _, row := range r.Table2 {
		h["table2_located/"+row.Protocol.String()] = float64(row.Count)
	}
	for proto, addrs := range r.ObserverAddrs {
		h["table3_observers/"+proto.String()] = float64(len(addrs))
	}
	return h
}

// headlineAgg folds per-trial headlines into the cross-trial aggregate
// one trial at a time — the streaming replacement for the historical
// whole-batch pass, with bit-identical output. Keys absent from a trial
// contribute 0 to mean, min, and max: adding 0.0 is an exact identity
// for the running sum, so only the present values need summing (in trial
// order, since float addition is not associative), and finalize clamps
// min/max toward 0 for any key missing from at least one trial.
type headlineAgg struct {
	acc map[string]*statAcc
}

// statAcc is one key's running state: exact sum, observed extrema, and
// how many trials carried the key.
type statAcc struct {
	sum, min, max float64
	count         int
}

func newHeadlineAgg() *headlineAgg {
	return &headlineAgg{acc: make(map[string]*statAcc)}
}

// fold merges one trial's headline. Trials must be folded in trial order
// for the sums to be bit-identical across worker counts.
//
//shadowlint:hotpath
func (a *headlineAgg) fold(h map[string]float64) {
	for k, v := range h {
		st := a.acc[k]
		if st == nil {
			a.acc[k] = &statAcc{sum: v, min: v, max: v, count: 1}
			continue
		}
		st.sum += v
		st.count++
		if v < st.min {
			st.min = v
		}
		if v > st.max {
			st.max = v
		}
	}
}

// finalize produces the aggregate for a batch of n folded trials.
func (a *headlineAgg) finalize(n int) map[string]Stat {
	out := make(map[string]Stat, len(a.acc))
	for k, st := range a.acc {
		s := Stat{Mean: st.sum / float64(n), Min: st.min, Max: st.max, Count: st.count}
		if st.count < n {
			// Some trial lacked the key and contributed an implicit 0.
			if s.Min > 0 {
				s.Min = 0
			}
			if s.Max < 0 {
				s.Max = 0
			}
		}
		out[k] = s
	}
	return out
}

// JSON renders the batch — per-trial headlines plus the cross-trial
// aggregate — with deterministic key order (encoding/json sorts map
// keys), so identical seeds produce byte-identical output at any worker
// count.
func (r *Result) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// MergedTelemetryJSON renders every trial's telemetry as one export in
// the shape of telemetry.Set.ExportJSON: counters and histogram buckets
// sum across worlds, gauges keep their high-water mark, spans sum. It
// serves the consumer's incrementally merged accumulators (the per-trial
// snapshots are gone by the time Run returns).
func (r *Result) MergedTelemetryJSON() []byte {
	return telemetry.ExportMergedJSON(r.mergedMetrics, r.mergedSpans)
}
