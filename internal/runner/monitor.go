// Live campaign observability: the Monitor rides beside the worker pool
// and turns its milestones into three products — a stream of bus events
// for shadowmeter -watch, per-worker occupancy accounting for the
// -occupancy-json multi-core diagnostics, and flight-recorder dumps when
// a trial panics, runs suspiciously long, or the operator sends SIGQUIT.
//
// The monitor is strictly read-beside: runner hooks hand it copies
// (headline maps, metric snapshots taken by the trial's own goroutine),
// and every consumer-facing method returns fresh copies or merges of
// those snapshots. Nothing the monitor — or anything reading it — does
// can change a trial's result, which is why batch output is
// byte-identical with the live plane on or off (CI-enforced).
package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"shadowmeter/internal/runstore"
	"shadowmeter/internal/telemetry"
)

// MonitorOptions configures a Monitor.
type MonitorOptions struct {
	// Clock supplies wall time for occupancy and watchdog accounting.
	// cmd/ binaries pass time.Now; nil disables timing (all durations
	// zero) but keeps the event stream and completion tracking.
	Clock telemetry.Clock
	// Bus, when non-nil, receives the campaign event stream.
	Bus *telemetry.Bus
	// FlightDir, when non-empty, is where flight dumps land as
	// flight-<trial>.json. Empty disables the flight recorder.
	FlightDir string
	// Scale annotates the campaign snapshot (cosmetic; the runner does
	// not know the CLI's scale name).
	Scale string
}

// slowFactor is the watchdog threshold: a trial is "slow" when its wall
// time exceeds slowFactor × the median of completed trials (read from
// the trial wall-time histogram, so bucket-resolution).
const slowFactor = 4.0

// watchdogMinSamples is how many completed trials the watchdog needs
// before it trusts the median enough to call anything slow.
const watchdogMinSamples = 3

// trialWallBounds buckets per-trial wall seconds for the occupancy
// histogram (upper bounds, seconds).
var trialWallBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// CampaignInfo identifies the campaign being observed.
type CampaignInfo struct {
	// Trials counts the trials this run executes. For shard/slice runs
	// that is the window length, not the campaign's full plan.
	Trials int `json:"trials"`
	// First is the absolute index of the first trial in this run's
	// window — non-zero for shard runs, whose plan is
	// [First, First+Trials). Bus events and the Inflight list carry
	// absolute trial indexes; the bitmap covers only the window.
	First int `json:"first_trial,omitempty"`
	// Workers is the effective pool size: the requested count clamped to
	// the window's trial count (a pool larger than the plan would idle).
	Workers int `json:"workers"`
	// RequestedWorkers is the -workers value as configured, before the
	// clamp; 0 means "one per trial". When it differs from Workers the
	// clamp fired — visible here and in the occupancy report so speedup
	// series never divide by a phantom worker count.
	RequestedWorkers int    `json:"requested_workers,omitempty"`
	BaseSeed         int64  `json:"base_seed"`
	ConfigHash       string `json:"config_hash,omitempty"`
	Scale            string `json:"scale,omitempty"`
	StoreDir         string `json:"store_dir,omitempty"`
}

// CampaignSnapshot is the /campaign view: identity plus live progress.
type CampaignSnapshot struct {
	CampaignInfo
	// Completed counts finished trials (monotonic).
	Completed int `json:"completed"`
	// Pending counts trials not yet handed to a worker.
	Pending int `json:"pending"`
	// Inflight lists trial indexes currently running, sorted.
	Inflight []int `json:"inflight"`
	// Bitmap is one character per trial: '1' done, 'r' running, '0'
	// pending — the completion bitmap at a glance.
	Bitmap string `json:"bitmap"`
	// ElapsedSeconds is wall time since the campaign started.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ETASeconds extrapolates remaining wall time from the completion
	// rate; -1 while unknown (nothing completed yet, or no clock).
	ETASeconds float64 `json:"eta_seconds"`
	// ResumedTrials counts trials served from the campaign store.
	ResumedTrials int `json:"resumed_trials"`
	// SlowTrialDumps counts watchdog-triggered flight dumps.
	SlowTrialDumps int  `json:"slow_trial_dumps"`
	Finished       bool `json:"finished"`
}

// WorkerOccupancy is one worker's time budget over the campaign.
type WorkerOccupancy struct {
	Worker int `json:"worker"`
	// Trials this worker ran (including resume-served ones).
	Trials int `json:"trials"`
	// BusySeconds is wall time spent inside trials.
	BusySeconds float64 `json:"busy_seconds"`
	// IdleSeconds is wall time between trials (queue waits).
	IdleSeconds float64 `json:"idle_seconds"`
	// MergeWaitSeconds is wall time between this worker's exit and the
	// slowest worker finishing — the straggler cost Amdahl charges the
	// whole pool for.
	MergeWaitSeconds float64 `json:"merge_wait_seconds"`
	// BusyFraction is BusySeconds over the worker's whole campaign span
	// (busy + idle + merge wait).
	BusyFraction float64 `json:"busy_fraction"`
}

// Distribution is a rendered fixed-bucket histogram (JSON-tagged so the
// occupancy report marshals with stable lower-case keys).
type Distribution struct {
	// Bounds are inclusive upper bounds; Counts has one extra +Inf
	// bucket at the end.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// OccupancyReport is the worker-occupancy product that shadowmeter
// -occupancy-json writes: where the campaign's wall time actually went,
// per worker, plus the per-trial wall-time distribution.
type OccupancyReport struct {
	Workers             []WorkerOccupancy `json:"workers"`
	TrialWallSeconds    Distribution      `json:"trial_wall_seconds"`
	CampaignWallSeconds float64           `json:"campaign_wall_seconds"`
	SlowTrialDumps      int               `json:"slow_trial_dumps"`
	// EffectiveWorkers is the clamped pool size the campaign actually ran
	// with (see CampaignInfo.RequestedWorkers for the pre-clamp value).
	EffectiveWorkers int `json:"effective_workers"`
	// RequestedWorkers echoes the configured -workers value (0 = one per
	// trial) so the occupancy JSON is self-describing about the clamp.
	RequestedWorkers int `json:"requested_workers"`
	// PeakHeapBytes is the streaming consumer's HeapAlloc high-water mark
	// over the campaign — the memory-flat number (see Result.PeakHeapBytes).
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// FlightDump is the flight recorder's crash/slow-trial artifact: what a
// world was doing (its recent span ring and span aggregates) plus the
// campaign context around it (recent bus events), written to
// <FlightDir>/flight-<trial>.json.
type FlightDump struct {
	Trial  int    `json:"trial"`
	Seed   int64  `json:"seed"`
	Worker int    `json:"worker"`
	Reason string `json:"reason"`
	// WallNS stamps the dump (monitor clock).
	WallNS int64 `json:"wall_ns"`
	// ElapsedSeconds is how long the trial had been running at dump
	// time (or its final duration for completion-time dumps).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// Completed reports whether the trial had finished when dumped.
	Completed bool `json:"completed"`
	// RecentSpans is the world's rolling last-N finished spans.
	RecentSpans []telemetry.SpanRecord `json:"recent_spans,omitempty"`
	// SpanSummary is the world's per-name span aggregate.
	SpanSummary []telemetry.SpanStats `json:"span_summary,omitempty"`
	// BusEvents is the newest slice of the campaign stream.
	BusEvents []telemetry.StreamEvent `json:"bus_events,omitempty"`
}

// flightDumpBusEvents bounds the campaign-stream excerpt in a dump.
const flightDumpBusEvents = 64

type inflightTrial struct {
	worker int
	seed   int64
	start  time.Time
	tele   *telemetry.Set // nil until the world is built (and for resumed trials)
	dumped bool           // the watchdog dumps each trial at most once
}

type workerClock struct {
	started        bool
	startWall      time.Time
	lastTransition time.Time
	exitWall       time.Time
	exited         bool
	busy, idle     float64
	trials         int
}

// Monitor observes one campaign. All methods are safe for concurrent
// use; runner hooks call the unexported ones, the watch plane and cmd/
// call the exported snapshot/dump methods.
type Monitor struct {
	clock     telemetry.Clock
	bus       *telemetry.Bus
	flightDir string
	scale     string

	mu        sync.Mutex
	info      CampaignInfo
	startWall time.Time
	endWall   time.Time
	finished  bool
	started   int
	completed int
	resumed   int
	done      []bool
	running   []bool
	inflight  map[int]*inflightTrial
	// wallHist buckets completed trial wall seconds
	// (len(trialWallBounds)+1); it is also the watchdog's median source.
	wallHist []int64
	wallSum  float64
	// mergedMetrics/mergedSpans are the runner consumer's telemetry
	// accumulators, handed over after each trial-order fold — the same
	// values the final -metrics-json export renders, never mutated in
	// place (each merge returns fresh copies).
	mergedMetrics []telemetry.Metric
	mergedSpans   []telemetry.SpanStats
	peakHeap      uint64
	workers       []workerClock
	slowDumps     int
	flightErr     error // first flight-write failure, surfaced via FlightErr
}

// NewMonitor creates a Monitor. The zero MonitorOptions is valid (no
// clock, no bus, no flight recorder — only completion tracking).
func NewMonitor(opts MonitorOptions) *Monitor {
	return &Monitor{
		clock:     opts.Clock,
		bus:       opts.Bus,
		flightDir: opts.FlightDir,
		scale:     opts.Scale,
		inflight:  make(map[int]*inflightTrial),
		wallHist:  make([]int64, len(trialWallBounds)+1),
	}
}

// Bus returns the stream bus the monitor publishes to (nil if none).
func (m *Monitor) Bus() *telemetry.Bus { return m.bus }

func (m *Monitor) now() time.Time {
	if m.clock == nil {
		return time.Time{}
	}
	return m.clock()
}

func (m *Monitor) publish(ev telemetry.StreamEvent) {
	if m.bus != nil {
		m.bus.Publish(ev)
	}
}

// campaignStarted records identity and opens the worker clocks.
func (m *Monitor) campaignStarted(info CampaignInfo) {
	now := m.now()
	m.mu.Lock()
	info.Scale = m.scale
	m.info = info
	m.startWall = now
	m.done = make([]bool, info.Trials)
	m.running = make([]bool, info.Trials)
	m.workers = make([]workerClock, info.Workers)
	m.mu.Unlock()
	m.publish(telemetry.StreamEvent{
		Type: telemetry.EventCampaignStarted, Trial: -1, Worker: -1,
		Seed: info.BaseSeed, Total: info.Trials,
		Detail: info.ConfigHash,
	})
}

// campaignFinished closes the books: merge-wait is charged per worker as
// the gap between its own exit and the slowest worker's.
func (m *Monitor) campaignFinished() {
	now := m.now()
	m.mu.Lock()
	m.endWall = now
	m.finished = true
	completed, total := m.completed, m.info.Trials
	m.mu.Unlock()
	m.publish(telemetry.StreamEvent{
		Type: telemetry.EventCampaignFinished, Trial: -1, Worker: -1,
		Completed: completed, Total: total,
	})
}

func (m *Monitor) workerStarted(w int) {
	now := m.now()
	m.mu.Lock()
	if w < len(m.workers) {
		m.workers[w] = workerClock{started: true, startWall: now, lastTransition: now}
	}
	m.mu.Unlock()
}

func (m *Monitor) workerExited(w int) {
	now := m.now()
	m.mu.Lock()
	if w < len(m.workers) && m.workers[w].started {
		wc := &m.workers[w]
		wc.idle += now.Sub(wc.lastTransition).Seconds()
		wc.lastTransition = now
		wc.exitWall = now
		wc.exited = true
	}
	m.mu.Unlock()
}

// trialStarted flips the worker to busy and registers the in-flight
// trial for the watchdog and flight recorder.
func (m *Monitor) trialStarted(worker, trial int, seed int64) {
	now := m.now()
	m.mu.Lock()
	m.started++
	if i := trial - m.info.First; i >= 0 && i < len(m.running) {
		m.running[i] = true
	}
	m.inflight[trial] = &inflightTrial{worker: worker, seed: seed, start: now}
	if worker < len(m.workers) && m.workers[worker].started {
		wc := &m.workers[worker]
		wc.idle += now.Sub(wc.lastTransition).Seconds()
		wc.lastTransition = now
	}
	m.mu.Unlock()
	m.publish(telemetry.StreamEvent{Type: telemetry.EventWorkerBusy, Trial: trial, Worker: worker, Seed: seed})
	m.publish(telemetry.StreamEvent{Type: telemetry.EventTrialStarted, Trial: trial, Worker: worker, Seed: seed})
}

// attachWorld hands the monitor a live world's telemetry set so a
// mid-flight dump can read its span ring. Only the tracer is touched
// from outside the world's goroutine — it is mutex-guarded, unlike the
// registry's lock-free simulation-path counters.
func (m *Monitor) attachWorld(trial int, tele *telemetry.Set) {
	m.mu.Lock()
	if t, ok := m.inflight[trial]; ok {
		t.tele = tele
	}
	m.mu.Unlock()
}

// storeAppended reports a persisted trial record, carrying where its
// frame landed in the campaign log (zero ref on a failed append).
func (m *Monitor) storeAppended(trial int, ref runstore.FrameRef, err error) {
	detail := ""
	if err != nil {
		detail = err.Error()
	}
	m.publish(telemetry.StreamEvent{
		Type: telemetry.EventStoreAppended, Trial: trial, Worker: -1, Detail: detail,
		LogOffset: ref.Off, LogBytes: ref.Len,
	})
}

// scalarHeadline keeps only the campaign-total keys (no '/'-separated
// per-country/per-protocol families) for compact bus events.
func scalarHeadline(h map[string]float64) map[string]float64 {
	out := make(map[string]float64, 8)
	for k, v := range h {
		if !strings.Contains(k, "/") {
			out[k] = v
		}
	}
	return out
}

// trialFinished is the monitor's busiest hook: occupancy accounting,
// completion bookkeeping, the completion-time watchdog check, and the
// trial_finished/worker_idle bus events. The trial's spans only feed the
// event's virtual-time total; its telemetry reaches the monitor through
// telemetryFolded, in trial order.
func (m *Monitor) trialFinished(worker, trial int, seed int64, resumed bool, headline map[string]float64, spans []telemetry.SpanStats) {
	now := m.now()
	var virtual float64
	for _, sp := range spans {
		virtual += sp.Total.Seconds()
	}

	m.mu.Lock()
	var dur float64
	t := m.inflight[trial]
	if t != nil && m.clock != nil {
		dur = now.Sub(t.start).Seconds()
	}
	if i := trial - m.info.First; i >= 0 && i < len(m.done) {
		m.done[i] = true
		m.running[i] = false
	}
	m.completed++
	if resumed {
		m.resumed++
	}
	completed := m.completed
	// Watchdog, completion-time edition: compare against the median of
	// the trials that finished before this one.
	slow := false
	if med, n := histMedian(m.wallHist); t != nil && !t.dumped && m.clock != nil &&
		n >= watchdogMinSamples && dur > slowFactor*med {
		slow = true
		t.dumped = true
		m.slowDumps++
	}
	m.wallSum += dur
	m.wallHist[bucketOf(dur)]++
	if worker < len(m.workers) && m.workers[worker].started {
		wc := &m.workers[worker]
		wc.busy += now.Sub(wc.lastTransition).Seconds()
		wc.lastTransition = now
		wc.trials++
	}
	var dump *FlightDump
	if slow {
		dump = m.flightDumpLocked(trial, t, "slow_trial", dur, true)
	}
	delete(m.inflight, trial)
	total := m.info.Trials
	m.mu.Unlock()

	if dump != nil {
		m.writeFlight(dump)
	}
	m.publish(telemetry.StreamEvent{
		Type: telemetry.EventTrialFinished, Trial: trial, Worker: worker, Seed: seed,
		Completed: completed, Total: total, Resumed: resumed,
		WallSeconds: dur, VirtualSeconds: virtual,
		Headline: scalarHeadline(headline),
	})
	m.publish(telemetry.StreamEvent{Type: telemetry.EventWorkerIdle, Trial: trial, Worker: worker})
}

// trialPanicked is called from the runTrial recover path before the
// panic is re-raised: dump whatever the world recorded.
func (m *Monitor) trialPanicked(trial int, detail string) {
	m.mu.Lock()
	t := m.inflight[trial]
	var dump *FlightDump
	if t != nil {
		elapsed := 0.0
		if m.clock != nil {
			elapsed = m.now().Sub(t.start).Seconds()
		}
		dump = m.flightDumpLocked(trial, t, "panic: "+detail, elapsed, false)
	}
	m.mu.Unlock()
	if dump != nil {
		m.writeFlight(dump)
	}
}

// histMedian estimates the median trial wall time from the wall-time
// histogram: the upper bound of the bucket holding the ⌈n/2⌉-th sample,
// with the overflow bucket read as the last bound. It also returns the
// sample count n; the median is 0 when n is 0. Bucket resolution is
// coarse, but the watchdog only asks "several times slower than usual",
// and the monitor's state stays O(1) in trials.
func histMedian(hist []int64) (float64, int64) {
	var n int64
	for _, c := range hist {
		n += c
	}
	if n == 0 {
		return 0, 0
	}
	var seen int64
	for i, c := range hist[:len(trialWallBounds)] {
		seen += c
		if seen >= (n+1)/2 {
			return trialWallBounds[i], n
		}
	}
	return trialWallBounds[len(trialWallBounds)-1], n // overflow bucket
}

func bucketOf(sec float64) int {
	i := 0
	for i < len(trialWallBounds) && sec > trialWallBounds[i] {
		i++
	}
	return i
}

// CheckStalled is the in-flight half of the slow-trial watchdog: cmd/
// drives it from a wall-clock ticker, and any running trial whose
// elapsed time already exceeds slowFactor × the median gets a
// flight dump without waiting for it to finish (it may never). Each
// trial is dumped at most once. Returns the number of dumps written.
func (m *Monitor) CheckStalled() int {
	if m.clock == nil {
		return 0
	}
	now := m.now()
	m.mu.Lock()
	var dumps []*FlightDump
	if med, n := histMedian(m.wallHist); n >= watchdogMinSamples {
		limit := slowFactor * med
		for trial, t := range m.inflight {
			elapsed := now.Sub(t.start).Seconds()
			if !t.dumped && elapsed > limit {
				t.dumped = true
				m.slowDumps++
				dumps = append(dumps, m.flightDumpLocked(trial, t, "slow_trial", elapsed, false))
			}
		}
	}
	m.mu.Unlock()
	for _, d := range dumps {
		m.writeFlight(d)
	}
	return len(dumps)
}

// DumpInflight flight-dumps every running trial — the SIGQUIT handler's
// "what is this campaign doing right now". Returns the dump count.
func (m *Monitor) DumpInflight(reason string) int {
	now := m.now()
	m.mu.Lock()
	var dumps []*FlightDump
	trials := make([]int, 0, len(m.inflight))
	for trial := range m.inflight {
		trials = append(trials, trial)
	}
	sort.Ints(trials)
	for _, trial := range trials {
		t := m.inflight[trial]
		elapsed := 0.0
		if m.clock != nil {
			elapsed = now.Sub(t.start).Seconds()
		}
		dumps = append(dumps, m.flightDumpLocked(trial, t, reason, elapsed, false))
	}
	m.mu.Unlock()
	for _, d := range dumps {
		m.writeFlight(d)
	}
	return len(dumps)
}

// flightDumpLocked assembles a dump under m.mu. The tracer reads are
// safe from any goroutine (the tracer is mutex-guarded); the world's
// registry is deliberately NOT read — its simulation-path counters are
// lock-free and racing them from here would trip the race detector.
func (m *Monitor) flightDumpLocked(trial int, t *inflightTrial, reason string, elapsed float64, completed bool) *FlightDump {
	d := &FlightDump{
		Trial: trial, Seed: t.seed, Worker: t.worker, Reason: reason,
		ElapsedSeconds: elapsed, Completed: completed,
	}
	if m.clock != nil {
		d.WallNS = m.now().UnixNano()
	}
	if t.tele != nil {
		d.RecentSpans = t.tele.Tracer.Recent()
		d.SpanSummary = t.tele.Tracer.Summary()
	}
	if m.bus != nil {
		d.BusEvents = m.bus.Recent(flightDumpBusEvents)
	}
	return d
}

// writeFlight persists a dump (best effort: the flight recorder must
// never fail a campaign) and announces it on the bus.
func (m *Monitor) writeFlight(d *FlightDump) {
	if m.flightDir == "" {
		return
	}
	err := func() error {
		if err := os.MkdirAll(m.flightDir, 0o755); err != nil {
			return err
		}
		b, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		return os.WriteFile(filepath.Join(m.flightDir, fmt.Sprintf("flight-%d.json", d.Trial)), b, 0o644)
	}()
	m.mu.Lock()
	if err != nil && m.flightErr == nil {
		m.flightErr = err
	}
	m.mu.Unlock()
	m.publish(telemetry.StreamEvent{
		Type: telemetry.EventFlightDump, Trial: d.Trial, Worker: d.Worker,
		Seed: d.Seed, WallSeconds: d.ElapsedSeconds, Detail: d.Reason,
	})
}

// FlightErr reports the first flight-dump write failure, if any.
func (m *Monitor) FlightErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flightErr
}

// Campaign snapshots live progress for /campaign and the reporter.
func (m *Monitor) Campaign() CampaignSnapshot {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := CampaignSnapshot{
		CampaignInfo:   m.info,
		Completed:      m.completed,
		Pending:        m.info.Trials - m.started,
		ResumedTrials:  m.resumed,
		SlowTrialDumps: m.slowDumps,
		Finished:       m.finished,
		ETASeconds:     -1,
	}
	bitmap := make([]byte, len(m.done))
	for i := range m.done {
		switch {
		case m.done[i]:
			bitmap[i] = '1'
		case m.running[i]:
			bitmap[i] = 'r'
		default:
			bitmap[i] = '0'
		}
	}
	s.Bitmap = string(bitmap)
	for trial := range m.inflight {
		s.Inflight = append(s.Inflight, trial)
	}
	sort.Ints(s.Inflight)
	if m.clock != nil && !m.startWall.IsZero() {
		end := now
		if m.finished {
			end = m.endWall
		}
		s.ElapsedSeconds = end.Sub(m.startWall).Seconds()
		if m.completed > 0 && m.completed < m.info.Trials {
			s.ETASeconds = s.ElapsedSeconds / float64(m.completed) * float64(m.info.Trials-m.completed)
		}
		if m.finished || m.completed == m.info.Trials {
			s.ETASeconds = 0
		}
	}
	return s
}

// telemetryFolded hands the monitor the runner consumer's telemetry
// accumulators after a trial-order fold. Sharing them is safe: the
// consumer replaces, never mutates, its accumulators (MergeSnapshots and
// MergeSpans return fresh values), and MergedMetrics copies on read.
func (m *Monitor) telemetryFolded(metrics []telemetry.Metric, spans []telemetry.SpanStats) {
	m.mu.Lock()
	m.mergedMetrics, m.mergedSpans = metrics, spans
	m.mu.Unlock()
}

// MergedMetrics returns the telemetry of the trials folded so far — the
// /metrics payload. The fold runs in trial order on the runner's
// consumer, over snapshots each trial's own goroutine took at
// completion, so scraping a live campaign never races a running world
// and the live view is always a trial-order prefix of the final
// -metrics-json export. The single-argument re-merge deep-copies the
// accumulators so callers cannot alias monitor state.
func (m *Monitor) MergedMetrics() ([]telemetry.Metric, []telemetry.SpanStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return telemetry.MergeSnapshots(m.mergedMetrics), telemetry.MergeSpans(m.mergedSpans)
}

// setPeakHeap records the consumer's HeapAlloc high-water mark at
// campaign end, surfacing it through the occupancy report.
func (m *Monitor) setPeakHeap(bytes uint64) {
	m.mu.Lock()
	m.peakHeap = bytes
	m.mu.Unlock()
}

// Occupancy renders the worker-occupancy report. Call it after the
// campaign finishes for final numbers (merge-wait needs the slowest
// worker's exit); calling mid-campaign reports progress so far.
func (m *Monitor) Occupancy() *OccupancyReport {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	end := now
	if m.finished {
		end = m.endWall
	}
	_, samples := histMedian(m.wallHist)
	rep := &OccupancyReport{
		TrialWallSeconds: Distribution{
			Bounds: append([]float64(nil), trialWallBounds...),
			Counts: append([]int64(nil), m.wallHist...),
			Sum:    m.wallSum,
			Count:  samples,
		},
		SlowTrialDumps:   m.slowDumps,
		EffectiveWorkers: m.info.Workers,
		RequestedWorkers: m.info.RequestedWorkers,
		PeakHeapBytes:    m.peakHeap,
	}
	if m.clock != nil && !m.startWall.IsZero() {
		rep.CampaignWallSeconds = end.Sub(m.startWall).Seconds()
	}
	for w := range m.workers {
		wc := m.workers[w]
		occ := WorkerOccupancy{Worker: w, Trials: wc.trials, BusySeconds: wc.busy, IdleSeconds: wc.idle}
		if wc.exited && end.After(wc.exitWall) {
			occ.MergeWaitSeconds = end.Sub(wc.exitWall).Seconds()
		}
		if span := occ.BusySeconds + occ.IdleSeconds + occ.MergeWaitSeconds; span > 0 {
			occ.BusyFraction = occ.BusySeconds / span
		}
		rep.Workers = append(rep.Workers, occ)
	}
	return rep
}

// OccupancyJSON renders the occupancy report for -occupancy-json.
func (m *Monitor) OccupancyJSON() ([]byte, error) {
	b, err := json.MarshalIndent(m.Occupancy(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
