package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"shadowmeter/internal/analysis"
	"shadowmeter/internal/core"
	"shadowmeter/internal/correlate"
	"shadowmeter/internal/decoy"
	"shadowmeter/internal/honeypot"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/runner"
	"shadowmeter/internal/runstore"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/topology"
)

// FixtureEnv carries a fixture spec to the store workload's set-up child.
// A binary embedding the benchmark calls FixtureMain when it is set.
const FixtureEnv = "SHADOWBENCH_FIXTURE"

// fixtureSpec is one campaign for the set-up child to write.
type fixtureSpec struct {
	Dir     string      `json:"dir"`
	Seed    int64       `json:"seed"`
	Trials  int         `json:"trials"`
	Workers int         `json:"workers"`
	Core    core.Config `json:"core"`
}

func (s fixtureSpec) campaign() string { return filepath.Join(s.Dir, "campaign") }

func manifest(cfg core.Config, seed int64, trials int) runstore.Manifest {
	return runstore.Manifest{
		Version:    runstore.StoreVersion,
		ConfigHash: runner.CampaignHash(cfg),
		BaseSeed:   seed,
		Trials:     trials,
		Scale:      "small",
	}
}

// FixtureMain is the set-up child: it does what `shadowmeter -scale small
// -trials 2 -workers 2 -out DIR` does, through the same calls, and keeps
// the cold run's stdout (batch JSON) and merged telemetry beside the
// campaign. The campaign is written by its own process, as a real one
// is, so the parent's peak RSS covers only the store rounds.
func FixtureMain(specJSON string) int {
	var spec fixtureSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "shadowbench fixture:", err)
		return 2
	}
	if err := writeFixture(spec); err != nil {
		fmt.Fprintln(os.Stderr, "shadowbench fixture:", err)
		return 1
	}
	return 0
}

func writeFixture(spec fixtureSpec) error {
	st, err := runstore.OpenOrCreate(spec.campaign(), manifest(spec.Core, spec.Seed, spec.Trials), telemetry.NewSet())
	if err != nil {
		return err
	}
	res := runner.Run(runner.Config{
		Trials: spec.Trials, Workers: spec.Workers, BaseSeed: spec.Seed,
		Core: spec.Core, Store: st,
	})
	if res.StoreErr != nil {
		return res.StoreErr
	}
	if err := st.Close(); err != nil {
		return err
	}
	js, err := res.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(spec.Dir, "cold.json"), js, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(spec.Dir, "cold-telemetry.json"), res.MergedTelemetryJSON(), 0o644)
}

// storeFixture is a campaign the store rounds work on.
type storeFixture struct {
	dir    string
	man    runstore.Manifest
	core   core.Config
	trials int
	seed   int64
	// cold and coldTele are the cold run's outputs, which a resume must
	// reproduce byte for byte; nil when the campaign was not written by
	// runner.Run.
	cold, coldTele []byte
	records        []runstore.TrialRecord
	// log is the campaign's trials.log, which rewriting the same records
	// into a fresh store must reproduce.
	log    []byte
	events int
}

// load reads what the write action and the checks need.
func (f *storeFixture) load() error {
	st, err := runstore.OpenReadOnly(f.dir, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	f.records, f.events = nil, 0
	for _, row := range st.Headlines() {
		rec, ok, err := st.Get(row.Trial)
		if err != nil || !ok {
			return fmt.Errorf("bench: fixture trial %d unreadable (ok=%v): %v", row.Trial, ok, err)
		}
		f.records = append(f.records, rec)
		f.events += len(rec.Events)
	}
	f.log, err = os.ReadFile(runstore.LogPath(f.dir))
	return err
}

// storeReplay is the store workload. Set-up writes the campaigns, each in
// a child process. The measured section is rounds of resume, read and
// write over every campaign.
func (r *run) storeReplay() error {
	var tr *tracer
	if r.o.Trace {
		tr = newTracer()
	}
	cfg := r.o.coreConfig()
	fs, setups, err := r.buildFixtures(tr, cfg)
	if err != nil {
		return err
	}
	r.metrics["setup_s"] = Median(setups)
	if tr == nil {
		r.measure(func(k int) time.Duration { return r.storeRound(nil, fs, k) })
		return nil
	}

	// The first campaign's first trial again, traced: the simulation
	// layers' numbers for the workload's set-up, and proof that the traced
	// path computes what runner.Run stored.
	sp := tr.begin("topology.blueprint", -1)
	t0 := time.Now()
	cfg.Topo = topology.NewBlueprint(topology.Config{})
	r.metrics["topology.blueprint_s"] = time.Since(t0).Seconds()
	tr.end(sp)
	tt := r.traceTrial(tr, cfg, 0, fs[0].seed, &netsim.Arena{})
	r.replayMerge(tr, tt)
	stored := telemetry.ExportMergedJSON(fs[0].records[0].Metrics, fs[0].records[0].Spans)
	if !bytes.Equal(telemetry.ExportMergedJSON(tt.metrics, tt.spans), stored) {
		r.invalidate("traced replay of fixture trial 0 disagrees with the stored record")
	}
	r.op(1, !tt.ok)

	sec, err := r.startMeasured()
	if err != nil {
		return err
	}
	p := newPacer(r.o.Seconds)
	for k := 0; p.more(); k++ {
		p.done(r.storeRound(tr, fs, k))
	}
	if err := r.stopMeasured(tr, sec, len(p.durs)); err != nil {
		return err
	}
	return r.writeTrace(tr)
}

// buildFixtures runs the set-up child once per campaign: campaign i holds
// trials S+2i and S+2i+1. It returns the campaigns and the CPU time each
// child used, at reference speed.
func (r *run) buildFixtures(tr *tracer, cfg core.Config) ([]*storeFixture, []float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var setups []float64
	var fs []*storeFixture
	cal := r.calMS
	for i := 0; i < fixtures; i++ {
		spec := fixtureSpec{
			Dir:  filepath.Join(r.o.WorkDir, fmt.Sprintf("fixture%d", i)),
			Seed: r.o.Seed + int64(i*fixtureTrials), Trials: fixtureTrials, Workers: workerCount(), Core: cfg,
		}
		if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
			return nil, nil, err
		}
		b, err := json.Marshal(spec)
		if err != nil {
			return nil, nil, err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), FixtureEnv+"="+string(b))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		sp := tr.begin("runner.fixture", -1)
		err = cmd.Run()
		tr.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: writing store fixture %d: %w", i, err)
		}
		next := calibrate()
		setups = append(setups, atReference((cmd.ProcessState.UserTime()+cmd.ProcessState.SystemTime()).Seconds(), cal, next))
		cal = next

		f := &storeFixture{
			dir: spec.campaign(), man: manifest(cfg, spec.Seed, spec.Trials),
			core: cfg, trials: spec.Trials, seed: spec.Seed,
		}
		cold, err1 := os.ReadFile(filepath.Join(spec.Dir, "cold.json"))
		tele, err2 := os.ReadFile(filepath.Join(spec.Dir, "cold-telemetry.json"))
		if err1 != nil || err2 != nil {
			return nil, nil, fmt.Errorf("bench: fixture %d output: %v %v", i, err1, err2)
		}
		f.cold, f.coldTele = cold, tele
		r.golden.record(fmt.Sprintf("fixture%d.batch.json", i), cold)
		r.golden.record(fmt.Sprintf("fixture%d.telemetry.json", i), tele)
		if err := f.load(); err != nil {
			return nil, nil, err
		}
		fs = append(fs, f)
	}
	return fs, setups, nil
}

// persistTraced writes a traced run's trials into a fresh campaign, the
// way the runner persists an -out campaign, so the store layers are
// measured on this workload's records too. The records carry no
// headline: that is computed inside the runner.
func (r *run) persistTraced(tr *tracer, cfg core.Config, recs []runstore.TrialRecord) (*storeFixture, error) {
	cfg.Topo = nil
	f := &storeFixture{
		dir: filepath.Join(r.o.WorkDir, "campaign"), man: manifest(cfg, r.o.Seed, len(recs)),
		core: cfg, trials: len(recs), seed: r.o.Seed,
	}
	if err := r.writeStore(tr, f.dir, f.man, recs); err != nil {
		return nil, err
	}
	return f, f.load()
}

// storeRound is one measured operation: resume, read and write each
// campaign. It returns the time the actions took, without their checks,
// and fails if any action does.
func (r *run) storeRound(tr *tracer, fs []*storeFixture, k int) time.Duration {
	var total time.Duration
	ok := true
	logBytes, records := 0, 0
	for i, f := range fs {
		resume, resumed := r.resume(tr, f)
		read, readOK := r.read(tr, f)
		write, written := r.write(tr, f, fmt.Sprintf("write%d-%d", k, i))
		ok = ok && resumed && readOK && written
		r.sample("store.resume_s_p50", resume.Seconds())
		r.sample("store.read_s_p50", read.Seconds())
		r.sample("store.write_s_p50", write.Seconds())
		total += resume + read + write
		logBytes += len(f.log)
		records += len(f.records)
	}
	r.op(1, !ok)
	r.metrics["runstore.bytes_per_record"] = float64(logBytes) / float64(records)
	return total
}

// resume is `shadowmeter -out DIR -resume` over a complete campaign:
// open the store, serve every trial from it, render the batch JSON and
// merged telemetry.
func (r *run) resume(tr *tracer, f *storeFixture) (time.Duration, bool) {
	t0 := time.Now()
	sp := tr.begin("store.resume", -1)
	st, err := r.open(tr, func() (*runstore.Store, error) {
		return runstore.OpenOrCreate(f.dir, f.man, telemetry.NewSet())
	})
	if err != nil {
		tr.end(sp)
		r.problem("resume: %v", err)
		return time.Since(t0), false
	}
	res := runner.Run(runner.Config{
		Trials: f.trials, Workers: 1, BaseSeed: f.seed,
		Core: f.core, Store: st, Resume: true,
	})
	js, jsErr := res.JSON()
	tele := res.MergedTelemetryJSON()
	closeErr := st.Close()
	tr.end(sp)
	d := time.Since(t0)

	hits := st.Stats().ResumeHits
	switch {
	case jsErr != nil || closeErr != nil || res.StoreErr != nil:
		r.problem("resume: %v %v %v", jsErr, closeErr, res.StoreErr)
	case hits != int64(f.trials):
		r.problem("resume served %d of %d trials from the store", hits, f.trials)
	case f.cold != nil && (!bytes.Equal(js, f.cold) || !bytes.Equal(tele, f.coldTele)):
		r.problem("resumed output differs from the cold run's")
	default:
		return d, true
	}
	return d, false
}

// read is what `shadowstore retention DIR` does: open read-only, list the
// columnar headlines, fetch every trial's events, and replay the
// retention analyses over them.
func (r *run) read(tr *tracer, f *storeFixture) (time.Duration, bool) {
	t0 := time.Now()
	sp := tr.begin("store.read", -1)
	st, err := r.open(tr, func() (*runstore.Store, error) { return runstore.OpenReadOnly(f.dir, nil) })
	if err != nil {
		tr.end(sp)
		r.problem("read: %v", err)
		return time.Since(t0), false
	}
	var events []correlate.Unsolicited
	stored := 0
	for _, row := range st.Headlines() {
		stored += row.Events
		g := tr.begin("runstore.get", -1)
		g0 := time.Now()
		rec, ok, err := st.Get(row.Trial)
		r.sample("runstore.get_ms_p50", ms(time.Since(g0)))
		tr.end(g)
		if err != nil || !ok {
			r.problem("read: trial %d unreadable (ok=%v): %v", row.Trial, ok, err)
			continue
		}
		events = appendEvents(events, rec.Events)
	}
	a := tr.begin("analysis.retention", -1)
	analysis.MultiUseStats(events, time.Hour)
	for _, p := range decoy.Protocols {
		analysis.DelayCDF(events, p, nil)
	}
	tr.end(a)
	closeErr := st.Close()
	tr.end(sp)
	d := time.Since(t0)
	if closeErr != nil || len(events) != stored || stored != f.events {
		r.problem("read: %d events replayed, headlines list %d, the campaign holds %d (close: %v)", len(events), stored, f.events, closeErr)
		return d, false
	}
	return d, true
}

// appendEvents rebuilds the minimal events the retention analyses read,
// as shadowstore does.
func appendEvents(dst []correlate.Unsolicited, recs []runstore.EventRecord) []correlate.Unsolicited {
	protos := make(map[string]decoy.Protocol, len(decoy.Protocols))
	for _, p := range decoy.Protocols {
		protos[p.String()] = p
	}
	for _, ev := range recs {
		dst = append(dst, correlate.Unsolicited{
			Sent:    &correlate.Sent{Label: ev.Label, Protocol: protos[ev.SentProto], DstName: ev.DstName},
			Capture: honeypot.Capture{Protocol: protos[ev.CaptureProto]},
			Delay:   time.Duration(ev.DelayNS),
		})
	}
	return dst
}

// write persists the campaign's records into a fresh store named name,
// as every -out campaign does; the new trials.log must equal the original.
func (r *run) write(tr *tracer, f *storeFixture, name string) (time.Duration, bool) {
	dir := filepath.Join(r.o.WorkDir, name)
	t0 := time.Now()
	sp := tr.begin("store.write", -1)
	err := r.writeStore(tr, dir, f.man, f.records)
	tr.end(sp)
	d := time.Since(t0)
	defer os.RemoveAll(dir)
	if err != nil {
		r.problem("write: %v", err)
		return d, false
	}
	got, err := os.ReadFile(runstore.LogPath(dir))
	if err != nil || !bytes.Equal(got, f.log) {
		r.problem("write: rewritten trials.log differs from the original (%v)", err)
		return d, false
	}
	return d, true
}

// writeStore creates a campaign in dir and appends recs to it.
func (r *run) writeStore(tr *tracer, dir string, man runstore.Manifest, recs []runstore.TrialRecord) error {
	st, err := runstore.Create(dir, man, nil)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		sp := tr.begin("runstore.append", -1)
		t0 := time.Now()
		_, err := st.AppendIndexed(rec)
		r.sample("runstore.append_ms_p50", ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			st.Close() // the append error is the one to report
			return err
		}
	}
	return st.Close()
}

// open times a store open.
func (r *run) open(tr *tracer, fn func() (*runstore.Store, error)) (*runstore.Store, error) {
	sp := tr.begin("runstore.open", -1)
	t0 := time.Now()
	st, err := fn()
	r.sample("runstore.open_ms", ms(time.Since(t0)))
	tr.end(sp)
	return st, err
}
