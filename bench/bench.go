// Package bench is shadowmeter's end-to-end benchmark. It drives the
// workloads people run — small-scale trials, and persisted campaigns being
// resumed, read and rewritten — through the same public entry points the
// CLIs use (runner.Run, core.NewExperiment and its phase methods,
// runstore, analysis, telemetry), checks their outputs, and reports the
// metrics BENCHMARK.json names.
//
// An untraced run reports the end-to-end metrics. A traced run drives the
// same inputs with one worker, times every call into a module's public
// functions from outside (spans carrying runtime/metrics deltas), takes a
// CPU profile, and reports the per-layer metrics. Nothing outside this
// directory is instrumented for it.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"shadowmeter/internal/core"
)

// Def names one metric and its unit.
type Def struct {
	Name string
	Unit string
}

// EndToEnd lists what an untraced run reports: what a user of the
// workload pays for it. BENCHMARK.json carries the same names and units.
//
// Times are CPU time at the reference host's speed (see atReference). On
// a shared VM the wall clock also counts time the hypervisor gives to
// other guests, which comes and goes for minutes at a time; getrusage
// does not charge it to the process. Each operation's wall time, raw CPU
// time and calibrations are kept in the result record.
var EndToEnd = []Def{
	{"setup_s", "s"},
	{"cpu_s_per_op", "s"},
	{"peak_rss_mb", "MB"},
}

// cpuShareModules are the buckets a traced run's flat CPU profile is
// grouped into; the shares sum to 1. netsim_queue is container/heap plus
// netsim's eventHeap methods, split out of netsim because the event queue
// is the single largest consumer on the simulation workload.
var cpuShareModules = []string{
	"netsim_queue", "netsim", "traceroute", "correlate", "honeypot",
	"resolversim", "observer", "decoy", "identifier", "dnswire", "httpwire",
	"tlswire", "wire", "geodb", "topology", "analysis", "telemetry", "core",
	"runner", "runstore", "runtime", "std", "other",
}

// PerLayer lists what a traced run reports. BENCHMARK.json carries the
// same names and units.
var PerLayer = append([]Def{
	{"topology.blueprint_s", "s"},
	{"core.world_build_s", "s"},
	{"pairresolver.screen_s", "s"},
	{"core.phase1_s", "s"},
	{"core.phase1_alloc_mb", "MB"},
	{"core.phase1_gc_cpu_s", "s"},
	{"core.phase2_s", "s"},
	{"core.phase2_alloc_mb", "MB"},
	{"core.phase2_gc_cpu_s", "s"},
	{"core.compile_s", "s"},
	{"core.phase_coverage", "ratio"},
	{"netsim.events_phase1", "count"},
	{"netsim.events_phase2", "count"},
	{"netsim.queue_peak", "count"},
	{"netsim.packets_forwarded", "count"},
	{"netsim.ns_per_event_phase1", "ns"},
	{"netsim.ns_per_event_phase2", "ns"},
	{"traceroute.probes", "count"},
	{"traceroute.ms_per_sweep", "ms"},
	{"correlate.captures", "count"},
	{"correlate.unsolicited_ratio", "ratio"},
	{"correlate.classify_ns_per_capture", "ns"},
	{"analysis.figures_s", "s"},
	{"telemetry.merge_ms_per_trial", "ms"},
	{"runstore.open_ms", "ms"},
	{"runstore.get_ms_p50", "ms"},
	{"runstore.append_ms_p50", "ms"},
	{"runstore.bytes_per_record", "bytes"},
	{"store.resume_s_p50", "s"},
	{"store.read_s_p50", "s"},
	{"store.write_s_p50", "s"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.peak_live_heap_mb", "MB"},
	{"host.calib_ms", "ms"},
	{"host.calib_drift", "ratio"},
	{"trace.overhead_share", "share"},
}, cpuShareDefs()...)

func cpuShareDefs() []Def {
	out := make([]Def, len(cpuShareModules))
	for i, m := range cpuShareModules {
		out[i] = Def{"cpu_share." + m, "share"}
	}
	return out
}

// Workloads, in the order `-workload all` runs them.
var Workloads = []string{"small-sweep", "store-replay"}

const (
	// maxWorkers caps the store fixture's `-workers`: min(2, nproc)
	// concurrent worlds. Measured operations run one world at a time, so
	// the second CPU of the 2-vCPU reference host serves the garbage
	// collector instead of a competing trial.
	maxWorkers = 2
	// fixtures and fixtureTrials shape the store workload's set-up: three
	// `-trials 2` campaigns from consecutive seeds. Store work follows the
	// records' sizes, which vary by seed (a trial's Phase I events range
	// over ±30%); a round over six trials' records averages that out.
	// setup_s is the median of the three builds.
	fixtures      = 3
	fixtureTrials = 2
	// blueprintBuilds is how often the simulation workload's set-up
	// repeats; setup_s is the median. A blueprint takes under a
	// millisecond, so it needs many builds for a steady median.
	blueprintBuilds = 101
	// unstableDrift marks a run whose host slowed or sped up by more than
	// this share between the calibration before and after it.
	unstableDrift = 0.10
)

// Options selects a workload and how to run it.
type Options struct {
	Workload string
	// Seed derives every input: trial seeds are Seed, Seed+1, ...
	Seed int64
	// Seconds is how long the measured section runs. Operations start
	// while more than half a typical operation still fits; at least one
	// always runs.
	Seconds time.Duration
	// Trace selects the per-layer run; TraceDir receives its spans.json,
	// layers.json and cpu.pprof.
	Trace    bool
	TraceDir string
	// WorkDir holds the run's campaign stores; it is removed at the end.
	WorkDir string
	// GoldenDir holds <workload>-seed<N>.sha256 output digests.
	// WriteGolden records this run's digests there instead of checking.
	GoldenDir   string
	WriteGolden bool
	// Core, when non-nil, replaces the workload's CLI configuration. Tests
	// use it to run every workload at a tiny geometry.
	Core *core.Config
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome: the printed fields, plus host
// calibration and what went wrong, for result records and stderr.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`

	Host     Host     `json:"-"`
	Problems []string `json:"-"`
	// OpS and OpCPUS are an untraced run's per-operation latency and CPU
	// time in seconds, in order, and OpCalibMS the calibrations before
	// each operation and after the last; a traced run leaves them empty.
	OpS       []float64 `json:"-"`
	OpCPUS    []float64 `json:"-"`
	OpCalibMS []float64 `json:"-"`
}

// Host is the drift guard: a fixed stdlib kernel timed before and after
// the workload.
type Host struct {
	CalibBeforeMS float64 `json:"calib_before_ms"`
	CalibAfterMS  float64 `json:"calib_after_ms"`
	Drift         float64 `json:"drift"`
	Unstable      bool    `json:"unstable"`
}

// run is the state one benchmark run accumulates.
type run struct {
	o       Options
	res     *Result
	ops     []bool // per-op outcome, true = failed
	golden  *golden
	metrics map[string]float64
	// samples collects per-trial and per-action values; a traced run
	// reports their medians.
	samples map[string][]float64
	// calMS is the calibration taken before the workload started.
	calMS float64
	// invalid marks output that is wrong as a whole (a golden or
	// determinism mismatch), which fails every operation of the run.
	invalid bool
}

func (r *run) problem(format string, args ...any) {
	r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
}

func (r *run) invalidate(format string, args ...any) {
	r.problem(format, args...)
	r.invalid = true
}

// op records n operations, failed or not.
func (r *run) op(n int, failed bool) {
	for i := 0; i < n; i++ {
		r.ops = append(r.ops, failed)
	}
}

func (r *run) sample(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// Run executes one workload and returns its result. An error means the
// benchmark could not set itself up; problems with the workload's own
// outputs are failed operations in the result instead.
func Run(o Options) (*Result, error) {
	if o.WorkDir == "" {
		return nil, fmt.Errorf("bench: no work directory")
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(o.WorkDir)
	g, err := loadGolden(o.GoldenDir, o.Workload, o.Seed)
	if err != nil {
		return nil, err
	}
	r := &run{
		o: o, res: &Result{Metrics: make(map[string]Metric)}, golden: g,
		metrics: make(map[string]float64), samples: make(map[string][]float64),
	}

	r.calMS = calibrate()
	switch o.Workload {
	case "small-sweep":
		err = r.trials()
	case "store-replay":
		err = r.storeReplay()
	default:
		err = fmt.Errorf("bench: unknown workload %q (want one of %v)", o.Workload, Workloads)
	}
	if err != nil {
		return nil, err
	}
	h := &r.res.Host
	h.CalibBeforeMS, h.CalibAfterMS = r.calMS, calibrate()
	h.Drift = h.CalibAfterMS/h.CalibBeforeMS - 1
	h.Unstable = math.Abs(h.Drift) > unstableDrift
	r.metrics["host.calib_ms"] = h.CalibBeforeMS
	r.metrics["host.calib_drift"] = h.Drift

	if o.WriteGolden {
		if err := g.write(); err != nil {
			return nil, err
		}
	} else if bad := g.mismatches(); len(bad) > 0 {
		r.invalidate("golden mismatch in %s: %v", g.path, bad)
	}
	if r.invalid {
		for i := range r.ops {
			r.ops[i] = true
		}
	}
	return r.finish()
}

// finish fills the printed fields from the accumulated state.
func (r *run) finish() (*Result, error) {
	res := r.res
	res.Attempted = len(r.ops)
	for _, failed := range r.ops {
		if failed {
			res.Failed++
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("bench: no operation ran")
	}
	res.Correct = res.Failed == 0
	defs := EndToEnd
	if r.o.Trace {
		defs = PerLayer
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// coreConfig is the exact core.Config `shadowmeter -scale small` builds,
// or the test override.
func (o Options) coreConfig() core.Config {
	if o.Core != nil {
		return *o.Core
	}
	return core.Config{Scale: core.ScaleSmall}
}

func workerCount() int { return min(maxWorkers, runtime.NumCPU()) }

// pacer paces a measured section: the first operation always runs, and
// another starts only while more than half of a typical operation (the
// median so far) fits before the deadline.
type pacer struct {
	deadline time.Time
	durs     []float64
}

func newPacer(d time.Duration) *pacer { return &pacer{deadline: time.Now().Add(d)} }

func (p *pacer) more() bool {
	if len(p.durs) == 0 {
		return true
	}
	half := time.Duration(Median(p.durs) / 2 * float64(time.Second))
	return time.Now().Add(half).Before(p.deadline)
}

func (p *pacer) done(d time.Duration) { p.durs = append(p.durs, d.Seconds()) }

// measure is an untraced run's measured section, a closed loop: it runs
// op(k), which returns the operation's latency, until the pacer stops
// it. Each operation starts from a freshly collected heap returned to the
// OS, as a new CLI process would, so its peak memory does not depend on
// the operations before it. The calibration kernel runs before each
// operation and after the last.
//
// cpu_s_per_op and peak_rss_mb are medians over the run's operations of
// each one's process CPU time, at reference speed by the calibrations on
// either side of it, and of its peak resident memory. A median over the
// whole run keeps a burst of interference from other tenants of the host
// out of the result.
func (r *run) measure(op func(k int) time.Duration) {
	mem := startPeakSampler(residentBytes)
	defer mem.stop()
	p := newPacer(r.o.Seconds)
	var peaks []float64
	for k := 0; p.more(); k++ {
		r.res.OpCalibMS = append(r.res.OpCalibMS, calibrate())
		debug.FreeOSMemory()
		mem.take()
		c0 := cpuTime()
		p.done(op(k))
		r.res.OpCPUS = append(r.res.OpCPUS, (cpuTime() - c0).Seconds())
		peaks = append(peaks, float64(mem.take())/(1<<20))
	}
	r.res.OpCalibMS = append(r.res.OpCalibMS, calibrate())
	r.res.OpS = p.durs
	ref := make([]float64, len(r.res.OpCPUS))
	for i, c := range r.res.OpCPUS {
		ref[i] = atReference(c, r.res.OpCalibMS[i], r.res.OpCalibMS[i+1])
	}
	r.metrics["cpu_s_per_op"] = Median(ref)
	r.metrics["peak_rss_mb"] = Median(peaks)
}

// refCalibMS is what calibrate reads on the reference host (2-vCPU Xeon
// VM, go1.24.0) when no neighbour is busy.
const refCalibMS = 23.0

// calibInput is the calibration kernel's input: 2^18 ints (2 MiB) from a
// fixed xorshift sequence.
var calibInput = func() []int {
	xs := make([]int, 1<<18)
	v := uint64(88172645463325252)
	for i := range xs {
		v ^= v << 13
		v ^= v >> 7
		v ^= v << 17
		xs[i] = int(v >> 1)
	}
	return xs
}()

// calibrate times a fixed stdlib kernel — sort.Ints over a copy of
// calibInput — and returns the least CPU time, in milliseconds, of three
// tries on one OS thread. It tells host drift from code changes: the
// kernel's code and input never change, and CPU time, unlike the wall
// clock, leaves out time the hypervisor gives to other guests. The kernel
// is ordinary branchy Go code over a cache-sized array, as the workloads
// are; a SHA-256 kernel runs on the CPU's SHA extensions instead and
// barely slows when a neighbour slows the workloads.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]int, len(calibInput))
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		t0 := threadCPUTime()
		copy(buf, calibInput)
		sort.Ints(buf)
		best = min(best, threadCPUTime()-t0)
	}
	return ms(best)
}

// threadCPUTime reads the calling thread's CPU clock. getrusage's
// per-thread figure is counted in scheduler ticks (4 ms on the reference
// host), too coarse for a kernel this short; this clock is exact.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID on Linux
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("bench: clock_gettime: " + errno.Error()) // the thread CPU clock always exists on Linux
	}
	return time.Duration(ts.Nano())
}

// atReference scales CPU seconds measured between two calibrations, in
// milliseconds, to the reference host's speed. A host that runs the
// kernel 20% slower than the reference is taken to run the workload 20%
// slower too.
func atReference(cpuS, calA, calB float64) float64 {
	return cpuS * refCalibMS / ((calA + calB) / 2)
}

// cpuTime is the CPU time, user and system, the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error()) // RUSAGE_SELF cannot fail on a supported platform
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Median returns the median of xs, or NaN for none.
func Median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks, so a single
// value is every quantile of itself.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
