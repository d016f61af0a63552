package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.N() != 0 {
		t.Fatalf("N() = %d, want 0", c.N())
	}
	if got := c.At(10); got != 0 {
		t.Errorf("At(10) = %v, want 0", got)
	}
}

func TestCDFBasic(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 3, 4} {
		c.Add(v)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if got := c.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	if c.Min() != 1 || c.Max() != 4 {
		t.Errorf("Min/Max = %v/%v, want 1/4", c.Min(), c.Max())
	}
}

func TestCDFAddAfterQuery(t *testing.T) {
	var c CDF
	c.Add(5)
	if got := c.At(5); got != 1 {
		t.Fatalf("At(5) = %v, want 1", got)
	}
	c.Add(1) // must re-sort transparently
	if got := c.At(1); got != 0.5 {
		t.Fatalf("At(1) after second Add = %v, want 0.5", got)
	}
}

func TestCDFDuration(t *testing.T) {
	var c CDF
	c.AddDuration(90 * time.Second)
	if got := c.At(90); got != 1 {
		t.Errorf("At(90s) = %v, want 1", got)
	}
	if got := c.At(89); got != 0 {
		t.Errorf("At(89s) = %v, want 0", got)
	}
}

func TestCDFPropertyAtMonotone(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		var c CDF
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			c.Add(v)
		}
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(0, 10, 20)
	for _, v := range []float64{-5, 0, 5, 10, 15, 20, 25} {
		h.Add(v)
	}
	// buckets: [<10 incl. underflow]=3 (-5,0,5), [10,20)=2 (10,15), [>=20]=2 (20,25)
	if h.Total() != 7 {
		t.Fatalf("Total = %d, want 7", h.Total())
	}
	if got := h.Bucket(0); got != 3 {
		t.Errorf("Bucket(0) = %d, want 3", got)
	}
	if got := h.Bucket(1); got != 2 {
		t.Errorf("Bucket(1) = %d, want 2", got)
	}
	if got := h.Bucket(2); got != 2 {
		t.Errorf("Bucket(2) = %d, want 2", got)
	}
	if got := h.Fraction(0); math.Abs(got-3.0/7) > 1e-12 {
		t.Errorf("Fraction(0) = %v", got)
	}
}

func TestHistogramPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("one edge", func() { NewHistogram(1) })
	mustPanic("descending", func() { NewHistogram(2, 1) })
	mustPanic("equal", func() { NewHistogram(1, 1) })
}

func TestHistogramPropertyConservation(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram(-100, -10, 0, 10, 100)
		n := 0
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			n++
		}
		var sum int64
		for i := 0; i < 5; i++ { // four edge-bounded buckets plus overflow
			sum += h.Bucket(i)
		}
		return sum == int64(n) && h.Total() == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounterRanking(t *testing.T) {
	c := NewCounter()
	c.AddN("AS4134", 172)
	c.AddN("AS58563", 40)
	c.AddN("AS137697", 24)
	c.Add("AS1")
	top := c.Top(2)
	if len(top) != 2 {
		t.Fatalf("Top(2) len = %d", len(top))
	}
	if top[0].Key != "AS4134" || top[0].Count != 172 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Key != "AS58563" {
		t.Errorf("top[1] = %+v", top[1])
	}
	wantFrac := 172.0 / 237.0
	if math.Abs(top[0].Fraction-wantFrac) > 1e-12 {
		t.Errorf("Fraction = %v, want %v", top[0].Fraction, wantFrac)
	}
	if c.Len() != 4 || c.Total() != 237 {
		t.Errorf("Len/Total = %d/%d", c.Len(), c.Total())
	}
}

func TestCounterTieBreak(t *testing.T) {
	c := NewCounter()
	c.AddN("b", 5)
	c.AddN("a", 5)
	top := c.Top(0)
	if top[0].Key != "a" || top[1].Key != "b" {
		t.Errorf("tie-break order wrong: %+v", top)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Table X: demo", "Name", "Count")
	tb.AddRow("alpha", 1)
	tb.AddRow("b", 22)
	out := tb.String()
	if !strings.Contains(out, "Table X: demo") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "Name") || !strings.Contains(out, "Count") {
		t.Errorf("missing headers: %q", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22") {
		t.Errorf("missing rows: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("line count = %d, want 5: %q", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1, "1"}, {100, "100"}, {99.7, "99.7"}, {2.5, "2.5"},
		{0.028, "0.03"}, {0.5, "0.50"}, {0.0042, "0.0042"}, {1234, "1234"},
	}
	for _, tc := range cases {
		if got := FormatFloat(tc.in); got != tc.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestFormatPercent(t *testing.T) {
	if got := FormatPercent(0.997); got != "99.7%" {
		t.Errorf("FormatPercent(0.997) = %q", got)
	}
	if got := FormatPercent(0.5); got != "50%" {
		t.Errorf("FormatPercent(0.5) = %q", got)
	}
}

func TestDelayBucket(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{10 * time.Second, "<1min"},
		{time.Minute, "1min-1h"},
		{59 * time.Minute, "1min-1h"},
		{time.Hour, "1h-1d"},
		{23 * time.Hour, "1h-1d"},
		{24 * time.Hour, ">1d"},
		{10 * 24 * time.Hour, ">1d"},
	}
	for _, tc := range cases {
		if got := DelayBucket(tc.d); got != tc.want {
			t.Errorf("DelayBucket(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestPlotCDF(t *testing.T) {
	var c CDF
	for _, v := range []float64{10, 60, 3600, 86400, 864000} {
		c.Add(v)
	}
	out := PlotCDF(&c, 40, 8)
	if !strings.Contains(out, "*") {
		t.Error("no curve drawn")
	}
	if !strings.Contains(out, "100%") || !strings.Contains(out, "0%") {
		t.Errorf("missing axis labels:\n%s", out)
	}
	if !strings.Contains(out, "10d") {
		t.Errorf("missing max tick:\n%s", out)
	}
	if got := PlotCDF(nil, 0, 0); got != "(no samples)\n" {
		t.Errorf("nil CDF = %q", got)
	}
	var empty CDF
	if got := PlotCDF(&empty, 0, 0); got != "(no samples)\n" {
		t.Errorf("empty CDF = %q", got)
	}
}

func TestBars(t *testing.T) {
	out := Bars("demo", []string{"a", "bb"}, []float64{1, 2}, 10)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "##########") {
		t.Errorf("bars:\n%s", out)
	}
	// Zero-max must not panic or divide by zero.
	out = Bars("", []string{"x"}, []float64{0}, 10)
	if !strings.Contains(out, "x") {
		t.Errorf("zero bars:\n%s", out)
	}
}

func TestHumanSeconds(t *testing.T) {
	cases := map[float64]string{30: "30s", 120: "2m", 7200: "2h", 172800: "2d"}
	for in, want := range cases {
		if got := humanSeconds(in); got != want {
			t.Errorf("humanSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}
