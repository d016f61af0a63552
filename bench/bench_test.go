package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"shadowmeter/internal/core"
)

// TestMain lets the test binary stand in for shadowbench as the store
// workload's set-up child.
func TestMain(m *testing.M) {
	if spec := os.Getenv(FixtureEnv); spec != "" {
		os.Exit(FixtureMain(spec))
	}
	os.Exit(m.Run())
}

// testCore is the runner tests' tinyCore geometry with one VP per global
// provider and half the sweeps: every invariant still holds, at about
// half the cost per trial, which keeps the store workload's three
// campaign builds short.
func testCore() *core.Config {
	return &core.Config{
		VPsPerGlobalProvider: 1,
		VPsPerCNProvider:     1,
		WebSites:             30,
		WebASes:              8,
		DNSRounds:            1,
		MaxSweepsPerProtocol: 20,
	}
}

func tinyOptions(t *testing.T, workload string, trace bool) Options {
	return Options{
		Workload:  workload,
		Seed:      42,
		Seconds:   100 * time.Millisecond,
		Trace:     trace,
		TraceDir:  filepath.Join(t.TempDir(), "trace"),
		WorkDir:   filepath.Join(t.TempDir(), "work"),
		GoldenDir: t.TempDir(),
		Core:      testCore(),
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []Def `json:"end_to_end"`
	PerLayer []Def `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the metric
// tables in step, in both directions.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(Workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, Workloads)
	}
	for _, c := range []struct {
		kind      string
		file, run []Def
	}{{"end_to_end", f.EndToEnd, EndToEnd}, {"per_layer", f.PerLayer, PerLayer}} {
		if len(c.file) != len(c.run) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", c.kind, len(c.file), len(c.run))
		}
		want := make(map[string]string)
		for _, d := range c.run {
			want[d.Name] = d.Unit
		}
		for _, d := range c.file {
			if u, ok := want[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: BENCHMARK.json has %s [%s], the harness %q", c.kind, d.Name, d.Unit, u)
			}
			delete(want, d.Name)
		}
		for name := range want {
			t.Errorf("%s: harness metric %s missing from BENCHMARK.json", c.kind, name)
		}
	}
}

// TestWorkloads runs every workload, untraced and traced, at a tiny
// geometry and checks what each reports.
func TestWorkloads(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, w, trace)
			res, err := Run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", w, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			defs := EndToEnd
			if trace {
				defs = PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !nameRE.MatchString(d.Name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w, trace, d.Name, m, ok)
				}
			}
			if !trace {
				for _, d := range EndToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			sum := 0.0
			for _, m := range cpuShareModules {
				sum += res.Metrics["cpu_share."+m].Value
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("%s: cpu_share.* sums to %v, want 1", w, sum)
			}
			if cov := res.Metrics["core.phase_coverage"].Value; cov < 0.97 {
				t.Errorf("%s: core.phase_coverage = %v, want >= 0.97", w, cov)
			}
			for _, name := range []string{"spans.json", "layers.json", "cpu.pprof"} {
				if fi, err := os.Stat(filepath.Join(o.TraceDir, name)); err != nil || fi.Size() == 0 {
					t.Errorf("%s: trace file %s missing or empty (%v)", w, name, err)
				}
			}
		}
	}
}

// TestTamperedGoldenFailsEveryOp proves the oracle has teeth: a run
// against a golden file with one wrong digest fails all its operations.
func TestTamperedGoldenFailsEveryOp(t *testing.T) {
	o := tinyOptions(t, "small-sweep", false)
	wrong := strings.Repeat("0", 64) + "  trial0.batch.json\n"
	if err := os.WriteFile(goldenPath(o.GoldenDir, o.Workload, o.Seed), []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("tampered golden: correct=%v attempted=%d failed=%d, want every op failed", res.Correct, res.Attempted, res.Failed)
	}
}

// TestCompareVerdicts checks each verdict on synthetic run sets.
func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{EndToEnd: []Bound{{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.1}}}
	set := func(base float64, failed int) map[string][]Record {
		var recs []Record
		for i := 0; i < 10; i++ {
			v := base * (1 + 0.01*float64(i%5))
			recs = append(recs, Record{Workload: "w", Result: &Result{
				Failed: failed, Metrics: map[string]Metric{"cpu_s_per_op": {Value: v, Unit: "s"}},
			}})
		}
		return map[string][]Record{"w": recs}
	}
	for _, c := range []struct {
		name   string
		b      map[string][]Record
		metric string
		want   string
	}{
		{"slower", set(1.5, 0), "cpu_s_per_op", Worse},
		{"faster", set(0.7, 0), "cpu_s_per_op", Better},
		{"same", set(1.0, 0), "cpu_s_per_op", Unchanged},
		{"failing", set(1.0, 1), "failed_ops", Worse},
	} {
		got := ""
		for _, row := range Compare(spec, set(1.0, 0), c.b) {
			if row.Metric == c.metric {
				got = row.Verdict
			}
		}
		if got != c.want {
			t.Errorf("%s: %s verdict %q, want %q", c.name, c.metric, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{1, 2}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles of two = %v", got)
	}
}
