package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

var base = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help")
	b := reg.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("re-registering the same counter must return the same handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("shared handle must see the increment")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestRegistryShapeMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a plain counter as a vec must panic")
		}
	}()
	reg.CounterVec("x_total", "", "label")
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Fatalf("SetMax lowered the high-water mark: %d", g.Value())
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatalf("SetMax did not raise: %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 11, 1000} {
		h.Observe(v)
	}
	snap := h.snapshot()
	// Bounds are inclusive upper limits: 0.5 and 1 land in le=1; 2 and 10
	// in le=10; 11 in le=100; 1000 overflows to +Inf.
	want := []int64{2, 2, 1, 1}
	for i, c := range snap.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, c, want[i], snap.Counts)
		}
	}
	if snap.Count != 6 || snap.Sum != 1024.5 {
		t.Fatalf("count=%d sum=%v", snap.Count, snap.Sum)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds must panic")
		}
	}()
	reg.Histogram("h", "", []float64{1, 1})
}

func TestCounterVecChildren(t *testing.T) {
	reg := NewRegistry()
	vec := reg.CounterVec("v_total", "", "rule")
	vec.With("b").Add(2)
	vec.With("a").Inc()
	if vec.With("b") != vec.With("b") {
		t.Fatal("With must return a stable child handle")
	}
	var m Metric
	for _, s := range reg.Snapshot() {
		if s.Name == "v_total" {
			m = s
		}
	}
	if m.LabelName != "rule" || len(m.Children) != 2 {
		t.Fatalf("snapshot = %+v", m)
	}
	// Children sorted by label.
	if m.Children[0].Label != "a" || m.Children[0].Value != 1 ||
		m.Children[1].Label != "b" || m.Children[1].Value != 2 {
		t.Fatalf("children = %+v", m.Children)
	}
}

func TestTracerAggregatesVirtualTime(t *testing.T) {
	now := base
	tr := NewTracer(func() time.Time { return now })
	sp := tr.Start("phase:test")
	sp.Event()
	sp.Event()
	now = now.Add(90 * time.Second)
	if d := sp.End(); d != 90*time.Second {
		t.Fatalf("span duration = %v", d)
	}
	if d := sp.End(); d != 0 {
		t.Fatalf("double End must be a no-op, got %v", d)
	}
	sp2 := tr.Start("phase:test")
	now = now.Add(10 * time.Second)
	sp2.End()

	sum := tr.Summary()
	if len(sum) != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	st := sum[0]
	if st.Count != 2 || st.Events != 2 || st.Total != 100*time.Second {
		t.Fatalf("stats = %+v", st)
	}
	if recs := tr.Recent(); len(recs) != 2 || recs[0].Events != 2 {
		t.Fatalf("recent = %+v", recs)
	}
}

// TestTracerRecentRing: before the flight-recorder ring wraps it holds
// every finished span, oldest first; after DefaultRecentSpans+10 spans
// it holds exactly the newest DefaultRecentSpans in completion order,
// while Summary still counts every span.
func TestTracerRecentRing(t *testing.T) {
	now := base
	tr := NewTracer(func() time.Time { return now })
	if got := tr.Recent(); got != nil {
		t.Fatalf("Recent before any span = %+v, want nil", got)
	}
	// Span i ends at base + i+1 seconds, so End identifies it.
	finish := func(i int) {
		sp := tr.Start("s")
		now = base.Add(time.Duration(i+1) * time.Second)
		sp.End()
	}
	check := func(first, n int) {
		t.Helper()
		got := tr.Recent()
		if len(got) != n {
			t.Fatalf("Recent holds %d spans, want %d", len(got), n)
		}
		for k, rec := range got {
			if want := base.Add(time.Duration(first+k+1) * time.Second); !rec.End.Equal(want) {
				t.Fatalf("Recent[%d] ended at %v, want span %d (%v)", k, rec.End, first+k, want)
			}
		}
	}
	const total = DefaultRecentSpans + 10
	for i := 0; i < DefaultRecentSpans-1; i++ {
		finish(i)
	}
	check(0, DefaultRecentSpans-1)
	finish(DefaultRecentSpans - 1)
	check(0, DefaultRecentSpans)
	for i := DefaultRecentSpans; i < total; i++ {
		finish(i)
	}
	check(total-DefaultRecentSpans, DefaultRecentSpans)
	if sum := tr.Summary(); len(sum) != 1 || sum[0].Count != total {
		t.Fatalf("summary = %+v, want %d spans counted", sum, total)
	}
}

func TestProgressCadence(t *testing.T) {
	var fired []Update
	p := &Progress{Every: 3, Sink: func(u Update) { fired = append(fired, u) }}
	p.SetPhase("phase1")
	for i := 0; i < 10; i++ {
		p.Tick(base.Add(time.Duration(i)*time.Second), i)
	}
	if len(fired) != 3 {
		t.Fatalf("sink fired %d times, want 3", len(fired))
	}
	if fired[0].Events != 3 || fired[2].Events != 9 {
		t.Fatalf("updates = %+v", fired)
	}
	if fired[0].Phase != "phase1" || fired[0].Pending != 2 {
		t.Fatalf("first update = %+v", fired[0])
	}
	if p.Events() != 10 {
		t.Fatalf("events = %d", p.Events())
	}
}

func TestProgressDisabled(t *testing.T) {
	p := &Progress{} // Every=0: Tick degrades to a counter
	for i := 0; i < 5; i++ {
		p.Tick(base, 0)
	}
	if p.Events() != 5 {
		t.Fatalf("events = %d", p.Events())
	}
}

// buildSet populates a set with every metric shape.
func buildSet() *Set {
	s := NewSet()
	now := base
	s.Tracer.Clock = func() time.Time { return now }
	c := s.Registry.Counter("b_total", "a counter")
	c.Add(41)
	c.Inc()
	s.Registry.Gauge("a_gauge", "a gauge").Set(7)
	s.Registry.Histogram("c_hist", "a histogram", []float64{1, 10}).Observe(3)
	vec := s.Registry.CounterVec("d_total", "a vec", "rule")
	vec.With("2").Inc()
	vec.With("1").Add(3)
	sp := s.Tracer.Start("phase:x")
	now = now.Add(time.Minute)
	sp.End()
	return s
}

func TestExportJSONDeterministic(t *testing.T) {
	a, b := buildSet().ExportJSON(), buildSet().ExportJSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("exports differ:\n%s\n---\n%s", a, b)
	}
	out := string(a)
	// Metric names appear in sorted order regardless of registration order.
	if strings.Index(out, `"a_gauge"`) > strings.Index(out, `"b_total"`) ||
		strings.Index(out, `"b_total"`) > strings.Index(out, `"c_hist"`) {
		t.Fatalf("metrics not sorted:\n%s", out)
	}
	for _, want := range []string{
		`"b_total": 42`,
		`"a_gauge": 7`,
		`"c_hist": {"count": 1, "sum": 3, "buckets": {"1": 0, "10": 1, "+Inf": 0}}`,
		`"d_total": {"1": 3, "2": 1}`,
		`"phase:x": {"count": 1, "events": 0, "virtual_seconds": 60}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

func TestWriteText(t *testing.T) {
	var b bytes.Buffer
	buildSet().WriteText(&b)
	out := b.String()
	for _, want := range []string{"b_total", "a_gauge", "c_hist", `d_total{rule=1}`, "phase:x"} {
		if !strings.Contains(out, want) {
			t.Errorf("text summary missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	var b bytes.Buffer
	buildSet().WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE a_gauge gauge",
		"# TYPE c_hist histogram",
		"a_gauge 7",
		"b_total 42",
		`c_hist_bucket{le="1"} 0`,
		`c_hist_bucket{le="10"} 1`,
		`c_hist_bucket{le="+Inf"} 1`, // cumulative
		"c_hist_sum 3",
		"c_hist_count 1",
		`d_total{rule="1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestAtomicCounter(t *testing.T) {
	reg := NewRegistry()
	c := reg.AtomicCounter("rn_total", "")
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if c.Value() != 4000 {
		t.Fatalf("atomic counter = %d, want 4000", c.Value())
	}
}
