package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shadowmeter/internal/telemetry"
)

// fakeClock is a hand-advanced wall clock: the watchdog tests need
// "slow" trials without slow tests.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) clock() time.Time        { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }

// runFastTrials drives trials 0..n-1 through the monitor hooks, each
// taking wall on the fake clock, establishing the watchdog's median.
func runFastTrials(m *Monitor, c *fakeClock, n int, wall time.Duration) {
	for i := 0; i < n; i++ {
		m.trialStarted(0, i, int64(100+i))
		c.advance(wall)
		m.trialFinished(0, i, int64(100+i), false, map[string]float64{"captures": 1}, nil)
	}
}

func readFlight(t *testing.T, dir string, trial int) FlightDump {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "flight-"+jsonName(trial)))
	if err != nil {
		t.Fatalf("flight dump missing: %v", err)
	}
	var d FlightDump
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("decoding flight dump: %v", err)
	}
	return d
}

func jsonName(trial int) string {
	return string(rune('0'+trial)) + ".json"
}

// The completion-time watchdog: after three 1-second trials set the
// median, a trial 10× slower crosses slowFactor×median at finish and
// must leave a flight dump on disk.
func TestWatchdogDumpsSlowTrialOnCompletion(t *testing.T) {
	dir := t.TempDir()
	c := newFakeClock()
	bus := telemetry.NewBus(c.clock, 0)
	m := NewMonitor(MonitorOptions{Clock: c.clock, Bus: bus, FlightDir: dir})
	m.campaignStarted(CampaignInfo{Trials: 5, Workers: 1})
	m.workerStarted(0)

	runFastTrials(m, c, 3, time.Second)

	m.trialStarted(0, 3, 103)
	c.advance(10 * time.Second) // median 1s, factor 4 → 10s is slow
	m.trialFinished(0, 3, 103, false, nil, nil)

	d := readFlight(t, dir, 3)
	if d.Reason != "slow_trial" || !d.Completed || d.Trial != 3 || d.Seed != 103 {
		t.Fatalf("dump = %+v; want completed slow_trial for trial 3 seed 103", d)
	}
	if d.ElapsedSeconds != 10 {
		t.Fatalf("dump elapsed = %v, want 10", d.ElapsedSeconds)
	}
	if snap := m.Campaign(); snap.SlowTrialDumps != 1 {
		t.Fatalf("SlowTrialDumps = %d, want 1", snap.SlowTrialDumps)
	}
	// The dump event reached the bus.
	events, _, _ := bus.Since(0)
	var sawDump bool
	for _, ev := range events {
		if ev.Type == telemetry.EventFlightDump && ev.Trial == 3 {
			sawDump = true
		}
	}
	if !sawDump {
		t.Fatal("no flight_dump event on the bus")
	}
}

// The in-flight watchdog: CheckStalled must dump a trial that is
// already past the slow threshold without waiting for it to finish, and
// dump it at most once. The dump carries the world's recent spans. The
// median is read from the wall-time histogram: 1 s trials fall in the
// (0.5, 1] bucket (limit 4 s), while 400 s trials fall in the overflow
// bucket, read as the last bound of 300 s (limit 1200 s, not 1600 s).
func TestCheckStalledDumpsInflightTrialOnce(t *testing.T) {
	for _, tc := range []struct {
		wall, quiet, stalled time.Duration
	}{
		{wall: time.Second, quiet: 2 * time.Second, stalled: 20 * time.Second},
		{wall: 400 * time.Second, quiet: 1100 * time.Second, stalled: 1300 * time.Second},
	} {
		dir := t.TempDir()
		c := newFakeClock()
		m := NewMonitor(MonitorOptions{Clock: c.clock, FlightDir: dir})
		m.campaignStarted(CampaignInfo{Trials: 5, Workers: 1})
		m.workerStarted(0)

		runFastTrials(m, c, 3, tc.wall)

		m.trialStarted(0, 3, 103)
		set := telemetry.NewSet()
		set.Tracer.Start("phase:screen").End()
		m.attachWorld(3, set)

		c.advance(tc.quiet)
		if n := m.CheckStalled(); n != 0 {
			t.Fatalf("%v trials: CheckStalled at %v dumped %d trials, want 0", tc.wall, tc.quiet, n)
		}
		c.advance(tc.stalled - tc.quiet)
		if n := m.CheckStalled(); n != 1 {
			t.Fatalf("%v trials: CheckStalled at %v dumped %d trials, want 1", tc.wall, tc.stalled, n)
		}
		if n := m.CheckStalled(); n != 0 {
			t.Fatalf("%v trials: second CheckStalled dumped %d more, want 0 (once per trial)", tc.wall, n)
		}

		d := readFlight(t, dir, 3)
		if d.Completed || d.Reason != "slow_trial" {
			t.Fatalf("%v trials: dump = %+v; want in-flight slow_trial", tc.wall, d)
		}
		if len(d.RecentSpans) == 0 || d.RecentSpans[0].Name != "phase:screen" {
			t.Fatalf("%v trials: dump RecentSpans = %+v; want the attached world's span ring", tc.wall, d.RecentSpans)
		}
	}
}

func TestPanicAndSigquitDumps(t *testing.T) {
	dir := t.TempDir()
	c := newFakeClock()
	m := NewMonitor(MonitorOptions{Clock: c.clock, FlightDir: dir})
	m.campaignStarted(CampaignInfo{Trials: 4, Workers: 2})

	m.trialStarted(0, 0, 50)
	c.advance(time.Second)
	m.trialPanicked(0, "boom")
	if d := readFlight(t, dir, 0); d.Reason != "panic: boom" || d.Completed {
		t.Fatalf("panic dump = %+v", d)
	}

	m.trialStarted(1, 1, 51)
	if n := m.DumpInflight("sigquit"); n != 2 {
		t.Fatalf("DumpInflight dumped %d trials, want 2 (trials 0 and 1 in flight)", n)
	}
	if d := readFlight(t, dir, 1); d.Reason != "sigquit" {
		t.Fatalf("sigquit dump = %+v", d)
	}
}

func TestOccupancyAccounting(t *testing.T) {
	c := newFakeClock()
	m := NewMonitor(MonitorOptions{Clock: c.clock})
	m.campaignStarted(CampaignInfo{Trials: 2, Workers: 2})
	m.workerStarted(0)
	m.workerStarted(1)

	// Worker 1 runs one 6-second trial spanning the whole campaign;
	// worker 0 idles 1s, runs a 3-second trial, and exits at t=4,
	// waiting 2s on the straggler.
	m.trialStarted(1, 1, 11)
	c.advance(time.Second)
	m.trialStarted(0, 0, 10)
	c.advance(3 * time.Second)
	m.trialFinished(0, 0, 10, false, nil, nil)
	m.workerExited(0)
	c.advance(2 * time.Second)
	m.trialFinished(1, 1, 11, false, nil, nil)
	m.workerExited(1)
	m.campaignFinished()

	rep := m.Occupancy()
	if len(rep.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(rep.Workers))
	}
	w0, w1 := rep.Workers[0], rep.Workers[1]
	if w0.BusySeconds != 3 || w0.IdleSeconds != 1 || w0.MergeWaitSeconds != 2 {
		t.Fatalf("worker 0 = %+v; want busy 3, idle 1, merge-wait 2", w0)
	}
	if got, want := w0.BusyFraction, 0.5; got != want {
		t.Fatalf("worker 0 busy fraction = %v, want %v", got, want)
	}
	if w1.BusySeconds != 6 || w1.MergeWaitSeconds != 0 {
		t.Fatalf("worker 1 = %+v; want busy 6, merge-wait 0", w1)
	}
	if rep.CampaignWallSeconds != 6 {
		t.Fatalf("campaign wall = %v, want 6", rep.CampaignWallSeconds)
	}
	if rep.TrialWallSeconds.Count != 2 || rep.TrialWallSeconds.Sum != 9 {
		t.Fatalf("trial wall distribution = %+v; want count 2 sum 9", rep.TrialWallSeconds)
	}

	b, err := m.OccupancyJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"busy_fraction"`)) || !bytes.Contains(b, []byte(`"merge_wait_seconds"`)) {
		t.Fatalf("occupancy JSON missing fields:\n%s", b)
	}
}

// The inertness contract itself: a monitored batch — bus, occupancy,
// flight recorder, the works — must produce byte-identical batch JSON
// and merged telemetry to a bare one. This is the in-process version of
// check.sh's -watch on/off diff. Four trials on four workers let
// completion order differ from trial order; the monitor's live merge
// must still end byte-equal to the final export.
func TestMonitorDoesNotPerturbBatchOutput(t *testing.T) {
	cfg := Config{Trials: 4, Workers: 4, BaseSeed: 21, Core: tinyCore()}
	bare := Run(cfg)

	bus := telemetry.NewBus(time.Now, 0)
	mon := NewMonitor(MonitorOptions{Clock: time.Now, Bus: bus, FlightDir: t.TempDir(), Scale: "tiny"})
	sub := bus.Subscribe(0)
	defer bus.Unsubscribe(sub)
	cfg.Monitor = mon
	// Scrape the live merge throughout the run, as /metrics does: the
	// accumulators the consumer shares with the monitor must stay
	// race-free under -race.
	stopScrape, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stopScrape:
				return
			case <-time.After(time.Millisecond):
				telemetry.ExportMergedJSON(mon.MergedMetrics())
			}
		}
	}()
	observed := Run(cfg)
	close(stopScrape)
	<-scraped

	bareJSON, err := bare.JSON()
	if err != nil {
		t.Fatal(err)
	}
	obsJSON, err := observed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bareJSON, obsJSON) {
		t.Fatal("batch JSON differs with a monitor attached")
	}
	if !bytes.Equal(bare.MergedTelemetryJSON(), observed.MergedTelemetryJSON()) {
		t.Fatal("merged telemetry JSON differs with a monitor attached")
	}

	// And the monitor really observed the campaign while staying inert.
	snap := mon.Campaign()
	if !snap.Finished || snap.Completed != 4 || snap.Bitmap != "1111" {
		t.Fatalf("campaign snapshot = %+v; want finished 4/4", snap)
	}
	merged, spans := mon.MergedMetrics()
	if len(merged) == 0 || len(spans) == 0 {
		t.Fatal("monitor merged no telemetry")
	}
	if !bytes.Equal(telemetry.ExportMergedJSON(merged, spans), observed.MergedTelemetryJSON()) {
		t.Fatal("monitor's live merge differs from the final merged telemetry export")
	}
	var finished int
	events, _, _ := bus.Since(0)
	for _, ev := range events {
		if ev.Type == telemetry.EventTrialFinished {
			finished++
			if ev.Headline["captures"] == 0 {
				t.Fatalf("trial_finished event missing headline: %+v", ev)
			}
		}
	}
	if finished != 4 {
		t.Fatalf("bus carried %d trial_finished events, want 4", finished)
	}
}
