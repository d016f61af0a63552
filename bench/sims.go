package bench

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"shadowmeter/internal/analysis"
	"shadowmeter/internal/core"
	"shadowmeter/internal/correlate"
	"shadowmeter/internal/decoy"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/resolversim"
	"shadowmeter/internal/runner"
	"shadowmeter/internal/runstore"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/topology"
	"shadowmeter/internal/traceroute"
)

// trials runs the simulation workload. Set-up is the campaign blueprint
// (runner.Run builds one per batch; here it is built up front so trials
// share it). An untraced run then runs trial S+k as operation k, through
// runner.Run with one worker, as `shadowmeter -scale small -trials 1 -seed
// S+k` does; a traced one runs the trials through the phase calls.
func (r *run) trials() error {
	cfg := r.o.coreConfig()
	var tr *tracer
	if r.o.Trace {
		tr = newTracer()
	}
	var walls, cpus []float64
	for i := 0; i < blueprintBuilds; i++ {
		sp := tr.begin("topology.blueprint", -1)
		t0, c0 := time.Now(), cpuTime()
		cfg.Topo = topology.NewBlueprint(topology.Config{})
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		tr.end(sp)
	}
	r.metrics["setup_s"] = atReference(Median(cpus), r.calMS, calibrate())
	r.metrics["topology.blueprint_s"] = Median(walls)
	if tr != nil {
		return r.tracedTrials(tr, cfg)
	}

	r.measure(func(k int) time.Duration {
		t0 := time.Now()
		res := runner.Run(runner.Config{Trials: 1, Workers: 1, BaseSeed: r.o.Seed + int64(k), Core: cfg})
		d := time.Since(t0)
		r.op(1, !r.checkTrial(k, res))
		return d
	})
	return nil
}

// checkTrial records trial k's output digests and checks its invariants.
func (r *run) checkTrial(k int, res *runner.Result) bool {
	js, err := res.JSON()
	if err != nil {
		r.problem("trial %d: batch JSON: %v", k, err)
		return false
	}
	r.golden.record(fmt.Sprintf("trial%d.batch.json", k), js)
	r.golden.record(fmt.Sprintf("trial%d.telemetry.json", k), res.MergedTelemetryJSON())
	if err := headlineInvariants(res.Trials[0].Headline); err != nil {
		r.problem("trial %d: %v", k, err)
		return false
	}
	return true
}

// headlineInvariants is what any seed's trial must show: decoys went
// out, honeypots caught traffic, and Phase II located observers.
func headlineInvariants(h map[string]float64) error {
	if h["sent_decoys"] <= 0 || h["captures"] <= 0 {
		return fmt.Errorf("sent_decoys=%v captures=%v, want both > 0", h["sent_decoys"], h["captures"])
	}
	for k := range h {
		if strings.HasPrefix(k, "table2_located/") {
			return nil
		}
	}
	return fmt.Errorf("no table2_located/* headline")
}

// tracedTrials runs the workload's trials through the phase calls with
// one worker, persists them as a campaign, then runs one store round over
// it, all inside the measured section.
func (r *run) tracedTrials(tr *tracer, cfg core.Config) error {
	hash := runner.CampaignHash(cfg)
	arena := &netsim.Arena{}
	var recs []runstore.TrialRecord
	sec, err := r.startMeasured()
	if err != nil {
		return err
	}
	p := newPacer(r.o.Seconds)
	for t := 0; p.more(); t++ {
		t0 := time.Now()
		seed := r.o.Seed + int64(t)
		tt := r.traceTrial(tr, cfg, t, seed, arena)
		// A traced trial's merged telemetry must match the untraced
		// operation's digest for the same trial.
		fold := r.replayMerge(tr, tt)
		r.golden.record(fmt.Sprintf("trial%d.telemetry.json", t), telemetry.ExportMergedJSON(fold.metrics, fold.spans))
		p.done(time.Since(t0))
		r.op(1, !tt.ok)
		recs = append(recs, runstore.TrialRecord{
			Trial: t, Seed: seed, ConfigHash: hash,
			VStartNS: tt.vStart, VEndNS: tt.vEnd,
			Events: eventRecords(tt.e.EventsPhaseI), Metrics: tt.metrics, Spans: tt.spans,
		})
	}
	trials := len(p.durs)

	f, err := r.persistTraced(tr, cfg, recs)
	if err != nil {
		return err
	}
	r.storeRound(tr, []*storeFixture{f}, 0)
	if err := r.stopMeasured(tr, sec, trials); err != nil {
		return err
	}
	return r.writeTrace(tr)
}

// tracedTrial is one traced world and what the replays need from it.
type tracedTrial struct {
	e              *core.Experiment
	metrics        []telemetry.Metric
	spans          []telemetry.SpanStats
	vStart, vEnd   int64
	ok             bool
	phase1, phase2 int64 // events dispatched in each phase
}

// traceTrial runs one world through the public phase calls in the order
// runner.runTrial makes them, one span per call, with the worker's arena
// harvested after Compile. The classification and analysis replays run
// after the trial's span, outside it.
func (r *run) traceTrial(tr *tracer, cfg core.Config, t int, seed int64, arena *netsim.Arena) *tracedTrial {
	cfg.Seed, cfg.Arena = seed, arena
	root := tr.begin("trial", t)
	sp := tr.begin("core.world_build", t)
	e := core.NewExperiment(cfg)
	tr.end(sp)
	sp = tr.begin("pairresolver.screen", t)
	e.ScreenPairResolvers()
	tr.end(sp)
	reg := e.Telemetry().Registry
	ev0 := counter(reg.Snapshot(), "netsim_events_dispatched_total")
	sp = tr.begin("core.phase1", t)
	e.RunPhaseI()
	tr.end(sp)
	ev1 := counter(reg.Snapshot(), "netsim_events_dispatched_total")
	sp = tr.begin("core.phase2", t)
	e.RunPhaseII()
	tr.end(sp)
	sp = tr.begin("core.compile", t)
	rep := e.Compile()
	tr.end(sp)
	sp = tr.begin("telemetry.snapshot", t)
	tt := &tracedTrial{e: e, metrics: reg.Snapshot(), spans: e.Telemetry().Tracer.Summary()}
	tr.end(sp)
	tt.vStart, tt.vEnd = e.World.Cfg.Start.UnixNano(), e.World.Net.Now().UnixNano()
	sp = tr.begin("netsim.harvest", t)
	arena.Harvest(e.World.Net)
	tr.end(sp)
	tr.end(root)

	tt.phase1 = ev1 - ev0
	tt.phase2 = counter(tt.metrics, "netsim_events_dispatched_total") - ev1
	tt.ok = r.checkTraced(t, rep)
	r.layerSamples(tr, t, tt)
	tt.ok = r.replayClassify(tr, t, tt) && tt.ok
	tt.ok = r.replayAnalysis(tr, t, e, rep) && tt.ok
	return tt
}

func (r *run) checkTraced(t int, rep *core.Report) bool {
	st := rep.CorrelatorStats
	if st.SentDecoys <= 0 || st.Captures <= 0 || len(rep.Table2) == 0 {
		r.problem("trial %d: sent=%d captures=%d table2 rows=%d, want all > 0", t, st.SentDecoys, st.Captures, len(rep.Table2))
		return false
	}
	return true
}

// layerSamples derives the per-trial layer metrics from the trial's
// spans and telemetry. Counts come from the first trial only, so they
// repeat exactly for a seed however many trials a run fits.
func (r *run) layerSamples(tr *tracer, t int, tt *tracedTrial) {
	spans := map[string]*Span{}
	var phases float64
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Trial != t {
			continue
		}
		spans[s.Name] = s
		switch s.Name {
		case "core.world_build", "pairresolver.screen", "core.phase1", "core.phase2", "core.compile":
			phases += s.seconds()
		}
	}
	p1, p2 := spans["core.phase1"], spans["core.phase2"]
	r.sample("core.world_build_s", spans["core.world_build"].seconds())
	r.sample("pairresolver.screen_s", spans["pairresolver.screen"].seconds())
	r.sample("core.phase1_s", p1.seconds())
	r.sample("core.phase1_alloc_mb", float64(p1.AllocBytes)/(1<<20))
	r.sample("core.phase1_gc_cpu_s", p1.GCCPUS)
	r.sample("core.phase2_s", p2.seconds())
	r.sample("core.phase2_alloc_mb", float64(p2.AllocBytes)/(1<<20))
	r.sample("core.phase2_gc_cpu_s", p2.GCCPUS)
	r.sample("core.compile_s", spans["core.compile"].seconds())
	r.sample("netsim.ns_per_event_phase1", p1.seconds()*1e9/float64(tt.phase1))
	r.sample("netsim.ns_per_event_phase2", p2.seconds()*1e9/float64(tt.phase2))
	sweeps := counter(tt.metrics, "traceroute_sweeps_launched_total")
	r.sample("traceroute.ms_per_sweep", p2.seconds()*1e3/float64(sweeps))
	// The phase calls must account for nearly all of a trial: what falls
	// between them is the benchmark's own bookkeeping.
	cov := phases / spans["trial"].seconds()
	if old, ok := r.metrics["core.phase_coverage"]; !ok || cov < old {
		r.metrics["core.phase_coverage"] = cov
	}
	if t == 0 {
		r.metrics["netsim.events_phase1"] = float64(tt.phase1)
		r.metrics["netsim.events_phase2"] = float64(tt.phase2)
		r.metrics["netsim.queue_peak"] = float64(counter(tt.metrics, "netsim_event_queue_peak"))
		r.metrics["netsim.packets_forwarded"] = float64(counter(tt.metrics, "netsim_packets_forwarded_total"))
		r.metrics["traceroute.probes"] = float64(counter(tt.metrics, "traceroute_probes_sent_total"))
		captures := counter(tt.metrics, "correlate_captures_total")
		r.metrics["correlate.captures"] = float64(captures)
		r.metrics["correlate.unsolicited_ratio"] = float64(tt.e.Correlator.Stats().Unsolicited) / float64(captures)
	}
}

// counter reads one scalar metric from a telemetry snapshot. A missing
// name is a renamed metric, which the benchmark must not silently read
// as zero.
func counter(snap []telemetry.Metric, name string) int64 {
	for _, m := range snap {
		if m.Name == name {
			return m.Value
		}
	}
	panic("bench: telemetry has no metric " + name)
}

// replayClassify classifies the trial's whole honeypot log again through
// a fresh correlate.New holding the same send records. It must find the
// unsolicited events the trial found.
func (r *run) replayClassify(tr *tracer, t int, tt *tracedTrial) bool {
	e := tt.e
	caps := e.World.Honeypots.Log.Snapshot()
	c := correlate.New(e.World.Codec)
	added := make(map[string]bool)
	for _, cp := range caps {
		if cp.Label == "" || added[cp.Label] {
			continue
		}
		added[cp.Label] = true
		if s, ok := e.Correlator.SentByLabel(cp.Label); ok {
			c.AddSent(s)
		}
	}
	sp := tr.begin("correlate.classify", -1)
	got := c.Classify(caps)
	tr.end(sp)
	r.sample("correlate.classify_ns_per_capture", tr.spans[sp].seconds()*1e9/float64(len(caps)))
	if want := len(e.EventsPhaseI) + len(e.EventsPhaseII); len(got) != want {
		r.problem("trial %d: classification replay found %d unsolicited events, the trial %d", t, len(got), want)
		return false
	}
	return true
}

// replayAnalysis repeats Compile's analysis calls on the trial's Phase I
// evidence (those whose inputs are public) and checks that Figure 3 and
// Table 2 come out as the report has them.
func (r *run) replayAnalysis(tr *tracer, t int, e *core.Experiment, rep *core.Report) bool {
	w := e.World
	an := &analysis.Analyzer{Geo: w.Topo.Geo, Blocklist: w.Blocklist, Signatures: w.Signatures}
	events := e.EventsPhaseI
	resolverH := make(map[string]bool)
	for _, n := range resolversim.ResolverH {
		resolverH[n] = true
	}
	sp := tr.begin("analysis.figures", -1)
	fig3 := an.Figure3(events, e.Universe)
	analysis.DelayCDF(events, decoy.DNS, resolverH)
	analysis.DelayCDF(events, decoy.HTTP, nil)
	analysis.DelayCDF(events, decoy.TLS, nil)
	an.Figure6(events, resolverH, 6)
	analysis.MultiUseStats(events, time.Hour)
	an.ProbingIncentives(events, decoy.DNS)
	analysis.Figure5(events)
	analysis.HTTPishDecoyShare(events, rep.DNSDecoysPerDst)
	analysis.TimeSeries(events, w.Cfg.Start, 7*24*time.Hour, -1)
	table2 := analysis.Table2(e.SweepResults)
	_, addrs := an.Table3(e.SweepResults, 3)
	an.ObserverCountryShare(addrs)
	byPath := make(map[correlate.PathKey]traceroute.Result, len(e.SweepResults))
	for _, res := range e.SweepResults {
		byPath[correlate.PathKey{VP: res.Sweep.VP.Addr, Dst: res.Sweep.Dst.Addr}] = res
	}
	var web []correlate.Unsolicited
	for _, u := range events {
		if u.Sent.Protocol == decoy.HTTP || u.Sent.Protocol == decoy.TLS {
			web = append(web, u)
		}
	}
	an.ProbingIncentives(web, -1)
	analysis.TopNCoverage(an.ObserverBehaviourByAS(web, byPath), 5)
	tr.end(sp)
	r.sample("analysis.figures_s", tr.spans[sp].seconds())
	if !reflect.DeepEqual(fig3, rep.Figure3) || !reflect.DeepEqual(table2, rep.Table2) {
		r.problem("trial %d: analysis replay disagrees with the report's Figure 3 or Table 2", t)
		return false
	}
	return true
}

// telemetryFold is the runner consumer's running telemetry merge.
type telemetryFold struct {
	metrics []telemetry.Metric
	spans   []telemetry.SpanStats
}

// replayMerge folds a trial's telemetry into an empty merge the way the
// runner's consumer folds a one-trial batch.
func (r *run) replayMerge(tr *tracer, tt *tracedTrial) telemetryFold {
	sp := tr.begin("telemetry.merge", -1)
	fold := telemetryFold{
		metrics: telemetry.MergeSnapshots(nil, tt.metrics),
		spans:   telemetry.MergeSpans(nil, tt.spans),
	}
	tr.end(sp)
	r.sample("telemetry.merge_ms_per_trial", tr.spans[sp].seconds()*1e3)
	return fold
}

// eventRecords compacts Phase I events into the form a campaign store
// persists, as the runner does for -out campaigns.
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
