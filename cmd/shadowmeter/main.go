// Command shadowmeter runs the full traffic-shadowing experiment against
// the simulated Internet and prints the complete report: every table and
// figure of the paper, regenerated from honeypot and traceroute evidence.
//
// Usage:
//
//	shadowmeter [-seed N] [-scale small|medium|full] [-intercepted N]
//	            [-trials N] [-workers W] [-out DIR] [-shard i/N]
//	            [-resume] [-phase1-only] [-json-stats] [-mitigations]
//	            [-metrics] [-metrics-json] [-progress N]
//	            [-watch ADDR] [-occupancy-json PATH] [-flight-dir DIR]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"shadowmeter/internal/core"
	"shadowmeter/internal/runner"
	"shadowmeter/internal/runstore"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/watch"
)

// options are the parsed command-line settings that interact; kept in a
// struct so flag-combination rules are testable.
type options struct {
	trials        int
	out           string
	shard         string
	resume        bool
	phase1Only    bool
	jsonStats     bool
	metrics       bool
	metricsJSON   bool
	mitigations   bool
	watch         string
	occupancyJSON string
	flightDir     string
}

// batch reports whether the run goes through the multi-trial campaign
// runner. -out forces batch mode even for one trial: a persisted trial
// is a campaign of size one, with batch (aggregate JSON) output.
func (o options) batch() bool { return o.trials > 1 || o.out != "" }

// parseShard parses a -shard value "i/N" into a shard index and count.
// The geometry must be well-formed here; whether it matches an existing
// store is checked against the manifest when the store opens.
func parseShard(s string) (index, count int, err error) {
	is, ns, ok := strings.Cut(s, "/")
	var ierr, nerr error
	if ok {
		index, ierr = strconv.Atoi(is)
		count, nerr = strconv.Atoi(ns)
	}
	if !ok || ierr != nil || nerr != nil {
		return 0, 0, fmt.Errorf("-shard %q is malformed: want i/N, e.g. -shard 0/4 for the first of four shards", s)
	}
	if count <= 0 {
		return 0, 0, fmt.Errorf("-shard %q has no shards: the shard count N must be at least 1", s)
	}
	if index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-shard %q is out of range: the shard index must be in 0..%d for %d shards", s, count-1, count)
	}
	return index, count, nil
}

// validate enforces the flag-interaction contract. Batch stdout carries
// exactly one document — the aggregate batch JSON, or with -metrics-json
// the merged telemetry export — so flags that would smuggle a second
// document (or silently do nothing) are rejected rather than defined
// by accident.
func (o options) validate() error {
	if o.shard != "" {
		_, count, err := parseShard(o.shard)
		if err != nil {
			return err
		}
		if o.out == "" {
			return fmt.Errorf("-shard requires -out DIR: a shard's slice of the campaign lands in its own store, to be folded with `shadowstore merge`")
		}
		if count > o.trials {
			return fmt.Errorf("-shard %s splits %d trials across %d shards: at least one shard would be empty; use at most -trials shards", o.shard, o.trials, count)
		}
	}
	if o.resume && o.out == "" {
		return fmt.Errorf("-resume requires -out DIR: there is no campaign to resume without a store")
	}
	if o.out != "" && o.mitigations {
		return fmt.Errorf("-out is incompatible with -mitigations: only main-experiment trials are persisted")
	}
	if o.mitigations {
		if o.watch != "" || o.occupancyJSON != "" || o.flightDir != "" {
			return fmt.Errorf("-watch, -occupancy-json and -flight-dir are incompatible with -mitigations: the observability plane watches the main-experiment campaign runner")
		}
		return nil // remaining rules govern the main experiment
	}
	if o.batch() {
		if o.phase1Only {
			return fmt.Errorf("-phase1-only is incompatible with batch mode (-trials > 1 or -out): stored and aggregated trials always run both phases")
		}
		if o.jsonStats {
			return fmt.Errorf("-json-stats is incompatible with batch mode (-trials > 1 or -out): batch stdout already carries the aggregate batch JSON; use -metrics-json for the merged telemetry export")
		}
		if o.metrics {
			return fmt.Errorf("-metrics is incompatible with batch mode (-trials > 1 or -out): per-trial telemetry is merged; use -metrics-json for the merged export")
		}
		return nil
	}
	// The observability plane rides beside the campaign runner; single
	// runs have nothing for it to observe.
	if o.watch != "" {
		return fmt.Errorf("-watch requires batch mode (-trials > 1 or -out): the observability plane watches a campaign")
	}
	if o.occupancyJSON != "" {
		return fmt.Errorf("-occupancy-json requires batch mode (-trials > 1 or -out): occupancy is a property of the worker pool")
	}
	if o.flightDir != "" {
		return fmt.Errorf("-flight-dir requires batch mode (-trials > 1 or -out): the flight recorder rides on the campaign monitor")
	}
	return nil
}

func main() {
	var (
		seed        = flag.Int64("seed", 42, "experiment seed (world, traffic and exhibitor schedules derive from it)")
		scale       = flag.String("scale", "small", "experiment geometry: small, medium, or full (paper-sized: 4,364 VPs)")
		intercepted = flag.Int("intercepted", 0, "install DNS-interception ground truth on N VP-hosting ASes (Appendix E demo)")
		trials      = flag.Int("trials", 1, "independent trials to run (seed, seed+1, ...); >1 prints the aggregate batch JSON")
		workers     = flag.Int("workers", 0, "concurrent trial worlds (0 = one per trial); affects wall time only, never output")
		out         = flag.String("out", "", "campaign directory: durably persist each completed trial (implies batch output, even for -trials 1)")
		shard       = flag.String("shard", "", "run only slice i/N of the trial plan into the -out shard store (e.g. 0/2 and 1/2 partition the plan; fold with `shadowstore merge`)")
		resume      = flag.Bool("resume", false, "serve trials already stored in the -out campaign instead of re-running them (byte-identical output)")
		phase1Only  = flag.Bool("phase1-only", false, "stop after the Phase I landscape (skip tracerouting)")
		jsonStats   = flag.Bool("json-stats", false, "append machine-readable summary statistics as JSON (single runs only)")
		mitigations = flag.Bool("mitigations", false, "run the encryption mitigation study (ECH, DoH) instead of the main experiment")
		metrics     = flag.Bool("metrics", false, "append the telemetry summary table to stderr after the report (single runs only)")
		metricsJSON = flag.Bool("metrics-json", false, "print ONLY the telemetry export as JSON on stdout; in batch mode, the merged per-trial export (byte-identical for identical seeds)")
		progressN   = flag.Int64("progress", 0, "single run: report progress to stderr every N simulation events; batch: any N > 0 prints one stderr line per completed trial (0 disables)")
		watchAddr   = flag.String("watch", "", "serve the live observability plane on ADDR (/healthz, /campaign, /progress, /metrics, /debug/pprof); batch mode only, provably inert")
		occJSON     = flag.String("occupancy-json", "", "write the worker-occupancy report (busy/idle/merge-wait per worker, trial wall-time histogram) to PATH after the batch")
		flightDir   = flag.String("flight-dir", "", "flight-recorder dump directory for panicking or slow trials (default: the -out campaign directory)")
	)
	flag.Parse()

	opts := options{
		trials: *trials, out: *out, shard: *shard, resume: *resume,
		phase1Only: *phase1Only, jsonStats: *jsonStats,
		metrics: *metrics, metricsJSON: *metricsJSON,
		mitigations: *mitigations,
		watch:       *watchAddr, occupancyJSON: *occJSON, flightDir: *flightDir,
	}
	if err := opts.validate(); err != nil {
		log.Fatal(err)
	}

	if *mitigations {
		fmt.Fprintln(os.Stderr, "running mitigation study (baseline / TLS+ECH / DNS-over-HTTPS)...")
		fmt.Println(core.RenderMitigationStudy(core.MitigationStudy(*seed)))
		return
	}

	cfg := core.Config{Seed: *seed, InterceptedVPASes: *intercepted}
	switch *scale {
	case "small":
		cfg.Scale = core.ScaleSmall
	case "medium":
		cfg.Scale = core.ScaleMedium
	case "full":
		cfg.Scale = core.ScaleFull
	default:
		log.Fatalf("unknown scale %q (want small, medium or full)", *scale)
	}

	if opts.batch() {
		shardIndex, shardCount := 0, 0
		if *shard != "" {
			// validate already vetted the geometry; re-parse for the values.
			shardIndex, shardCount, _ = parseShard(*shard)
		}
		runBatch(batchParams{
			trials: *trials, workers: *workers, baseSeed: *seed,
			cfg: cfg, scaleName: *scale,
			shardIndex: shardIndex, shardCount: shardCount,
			metricsJSON: *metricsJSON, outDir: *out, resume: *resume,
			watchAddr: *watchAddr, occupancyPath: *occJSON,
			flightDir: *flightDir, progress: *progressN > 0,
		})
		return
	}

	started := time.Now()
	e := core.NewExperiment(cfg)
	fmt.Fprintf(os.Stderr, "world built: %d VPs after screening, %d DNS destinations, %d web sites (%.1fs)\n",
		len(e.World.Platform.VPs), len(e.World.DNSDests), len(e.World.Web.Sites), time.Since(started).Seconds())

	if *progressN > 0 {
		// Progress is event-count paced (deterministic points); only this
		// sink reads the wall clock, and only onto stderr.
		prog := e.Telemetry().Progress
		prog.Every = *progressN
		prog.Sink = func(u telemetry.Update) {
			fmt.Fprintf(os.Stderr, "progress: phase=%-8s events=%-12d pending=%-8d virtual=%s wall=%.1fs\n",
				u.Phase, u.Events, u.Pending, u.Virtual.Format(time.RFC3339), time.Since(started).Seconds())
		}
	}

	e.ScreenPairResolvers()
	fmt.Fprintf(os.Stderr, "pair-resolver screening: %d tested, %d removed\n",
		e.PairReport.Tested, e.PairReport.Removed)

	t1 := time.Now()
	e.RunPhaseI()
	fmt.Fprintf(os.Stderr, "phase I complete: %d unsolicited events (%.1fs)\n",
		len(e.EventsPhaseI), time.Since(t1).Seconds())

	if !*phase1Only {
		t2 := time.Now()
		e.RunPhaseII()
		fmt.Fprintf(os.Stderr, "phase II complete: %d sweeps analyzed (%.1fs)\n",
			len(e.SweepResults), time.Since(t2).Seconds())
	}

	report := e.Compile()
	if *metricsJSON {
		// Stdout carries ONLY the telemetry export: piping two same-seed
		// runs through diff is the documented determinism check.
		os.Stdout.Write(e.Telemetry().ExportJSON())
		fmt.Fprintf(os.Stderr, "total wall time: %.1fs\n", time.Since(started).Seconds())
		return
	}
	if *jsonStats {
		// Machine-readable reproduction artifact.
		out, err := report.JSON()
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(out)
		fmt.Println()
		if *metrics {
			e.Telemetry().WriteText(os.Stderr)
		}
		fmt.Fprintf(os.Stderr, "total wall time: %.1fs\n", time.Since(started).Seconds())
		return
	}
	fmt.Println(report.Render())
	if *metrics {
		e.Telemetry().WriteText(os.Stderr)
	}
}

// batchParams bundles everything a campaign run needs; the flag surface
// grew past the point where a positional parameter list stays readable.
type batchParams struct {
	trials   int
	workers  int
	baseSeed int64
	cfg      core.Config
	// scaleName annotates the store manifest and campaign snapshot.
	scaleName string
	// shardIndex/shardCount select slice shardIndex/shardCount of the
	// trial plan (shardCount 0 = unsharded: the whole plan).
	shardIndex  int
	shardCount  int
	metricsJSON bool
	outDir      string
	resume      bool
	// watchAddr, when non-empty, serves the observability plane there.
	watchAddr string
	// occupancyPath, when non-empty, receives the worker-occupancy JSON.
	occupancyPath string
	// flightDir overrides the flight-recorder directory (default outDir).
	flightDir string
	// progress prints one stderr line per completed trial.
	progress bool
}

// observed reports whether the run needs a campaign monitor. A plain
// unpersisted batch stays monitor-free — the check.sh watch-on/off diff
// compares a genuinely bare pipeline against a fully observed one — but
// a persisted campaign (-out) always gets one, so a panicking trial
// leaves a flight dump beside the store it interrupted.
func (p batchParams) observed() bool {
	return p.watchAddr != "" || p.occupancyPath != "" || p.flightDir != "" || p.progress || p.outDir != ""
}

// stalledCheckInterval paces the in-flight slow-trial watchdog. The
// ticker lives here, not in internal/ — wall-clock scheduling is a cmd/
// concern (and the simclock analyzer holds internal packages to that).
const stalledCheckInterval = 2 * time.Second

// runBatch executes a multi-trial campaign and prints the aggregate
// batch JSON (per-trial headlines + cross-trial mean/min/max). With
// -metrics-json, stdout instead carries only the merged telemetry
// export, diffable against other runs of the same seeds. With -out,
// every completed trial is durably persisted as it finishes; with
// -resume, trials already stored are served from the campaign store —
// per-seed determinism makes the two paths byte-identical on stdout.
//
// The observability plane (-watch, -occupancy-json, -progress, the
// flight recorder) attaches a Monitor to the runner; the monitor only
// ever sees copies and snapshots, so stdout stays byte-identical with
// the plane on or off.
func runBatch(p batchParams) {
	started := time.Now()
	rcfg := runner.Config{Trials: p.trials, Workers: p.workers, BaseSeed: p.baseSeed, Core: p.cfg}
	span := runner.Slice{From: 0, To: p.trials}
	if p.shardCount > 0 {
		span = runner.ShardSlice(p.trials, p.shardIndex, p.shardCount)
		rcfg.Slice = span
	}

	var st *runstore.Store
	if p.outDir != "" {
		man := runstore.Manifest{
			Version:    runstore.StoreVersion,
			ConfigHash: runner.CampaignHash(p.cfg),
			BaseSeed:   p.baseSeed,
			Trials:     p.trials,
			Scale:      p.scaleName,
			ShardIndex: p.shardIndex,
			ShardCount: p.shardCount,
		}
		var err error
		st, err = runstore.OpenOrCreate(p.outDir, man, telemetry.NewSet())
		if err != nil {
			log.Fatalf("opening campaign store: %v", err)
		}
		if !p.resume && st.Len() > 0 {
			log.Fatalf("campaign %s already holds %d trial records; pass -resume to continue it or point -out at a fresh directory", p.outDir, st.Len())
		}
		if n := st.Stats().TornTailTruncations; n > 0 {
			fmt.Fprintf(os.Stderr, "store %s: truncated %d torn tail record(s) left by an interrupted run\n", p.outDir, n)
		}
		rcfg.Store, rcfg.Resume = st, p.resume
	}

	var mon *runner.Monitor
	var repDone chan struct{}
	stop := make(chan struct{})
	if p.observed() {
		flightDir := p.flightDir
		if flightDir == "" {
			flightDir = p.outDir // panics in a persisted campaign leave evidence beside it
		}
		bus := telemetry.NewBus(time.Now, 0)
		mon = runner.NewMonitor(runner.MonitorOptions{
			Clock:     time.Now,
			Bus:       bus,
			FlightDir: flightDir,
			Scale:     p.scaleName,
		})
		rcfg.Monitor = mon

		if p.watchAddr != "" {
			ln, err := net.Listen("tcp", p.watchAddr)
			if err != nil {
				log.Fatalf("-watch %s: %v", p.watchAddr, err)
			}
			// check.sh and operators parse this line for the resolved port.
			fmt.Fprintf(os.Stderr, "watch: serving on http://%s\n", ln.Addr())
			srv := &http.Server{
				Handler:           (&watch.Server{Monitor: mon, Bus: bus}).Handler(),
				ReadHeaderTimeout: 5 * time.Second,
			}
			go func() {
				if err := srv.Serve(ln); err != http.ErrServerClosed {
					fmt.Fprintf(os.Stderr, "watch: server stopped: %v\n", err)
				}
			}()
			defer srv.Close()
		}
		if p.progress {
			rep := &telemetry.Reporter{Bus: bus, Total: span.To - span.From, W: os.Stderr, Clock: time.Now}
			repDone = make(chan struct{})
			go func() {
				defer close(repDone)
				rep.Run(stop)
			}()
		}
		// In-flight slow-trial watchdog: internal/ cannot own a ticker
		// (deterministic pipeline), so cmd/ paces the checks.
		go func() {
			tick := time.NewTicker(stalledCheckInterval)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					mon.CheckStalled()
				}
			}
		}()
		// SIGQUIT: flight-dump every in-flight trial, then restore the
		// default handler so a second SIGQUIT still gets the Go runtime's
		// goroutine dump.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		defer signal.Stop(quit)
		go func() {
			select {
			case <-stop:
			case <-quit:
				n := mon.DumpInflight("sigquit")
				fmt.Fprintf(os.Stderr, "watch: SIGQUIT: wrote %d flight dump(s)\n", n)
				signal.Stop(quit)
			}
		}()
	}

	// Report the effective pool, not the requested one: -workers larger
	// than the window clamps, and every speedup series divides by this.
	effWorkers := runner.EffectiveWorkers(span.To-span.From, p.workers)
	if p.shardCount > 0 {
		fmt.Fprintf(os.Stderr, "running shard %d/%d of %d trials: trials %d..%d (seeds %d..%d), %d worker(s)...\n",
			p.shardIndex, p.shardCount, p.trials, span.From, span.To-1,
			p.baseSeed+int64(span.From), p.baseSeed+int64(span.To)-1, effWorkers)
	} else {
		fmt.Fprintf(os.Stderr, "running %d trials (seeds %d..%d), %d worker(s)...\n",
			p.trials, p.baseSeed, p.baseSeed+int64(p.trials)-1, effWorkers)
	}
	res := runner.Run(rcfg)
	close(stop)
	if repDone != nil {
		<-repDone // let the reporter drain its final "trials N/N" line
	}

	if mon != nil {
		if err := mon.FlightErr(); err != nil {
			fmt.Fprintf(os.Stderr, "watch: flight recorder: %v\n", err)
		}
		if p.occupancyPath != "" {
			b, err := mon.OccupancyJSON()
			if err == nil {
				err = os.WriteFile(p.occupancyPath, b, 0o644)
			}
			if err != nil {
				log.Fatalf("-occupancy-json %s: %v", p.occupancyPath, err)
			}
		}
	}

	if st != nil {
		if res.StoreErr != nil {
			log.Fatalf("persisting trials: %v", res.StoreErr)
		}
		if err := st.Close(); err != nil {
			log.Fatalf("closing campaign store: %v", err)
		}
		s := st.Stats()
		fmt.Fprintf(os.Stderr, "store %s: records written %d, resume hits %d, torn-tail truncations %d\n",
			p.outDir, s.RecordsWritten, s.ResumeHits, s.TornTailTruncations)
	}

	if p.metricsJSON {
		os.Stdout.Write(res.MergedTelemetryJSON())
		printBatchFooter(started, res)
		return
	}
	out, err := res.JSON()
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(out)
	fmt.Println()
	printBatchFooter(started, res)
}

// printBatchFooter closes the batch's stderr narrative: wall time plus
// the streaming consumer's peak-heap high-water, the number the
// memory-flat gate tracks (also exported via -occupancy-json).
func printBatchFooter(started time.Time, res *runner.Result) {
	fmt.Fprintf(os.Stderr, "total wall time: %.1fs, peak heap %.1f MB\n",
		time.Since(started).Seconds(), float64(res.PeakHeapBytes)/(1<<20))
}
