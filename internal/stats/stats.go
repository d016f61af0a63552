// Package stats provides the small statistical toolkit used by the
// shadowmeter analysis pipeline: empirical CDFs, histograms,
// counters with ranked output, and plain-text table rendering.
//
// Everything in this package is deterministic and allocation-conscious; the
// analysis stage processes millions of (decoy, unsolicited-request) pairs
// per experiment and renders every table and figure of the paper from these
// primitives.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// CDF is an empirical cumulative distribution function over float64 samples.
// The zero value is ready to use.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// AddDuration appends a time.Duration sample, stored in seconds.
func (c *CDF) AddDuration(d time.Duration) { c.Add(d.Seconds()) }

// N reports the number of samples.
func (c *CDF) N() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns the empirical CDF evaluated at x: the fraction of samples <= x.
// It returns 0 for an empty CDF.
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	// sort.SearchFloat64s returns the first index with samples[i] >= x;
	// we want the count of samples <= x.
	i := sort.Search(len(c.samples), func(i int) bool { return c.samples[i] > x })
	return float64(i) / float64(len(c.samples))
}

// Min returns the smallest sample, or 0 if empty.
func (c *CDF) Min() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	return c.samples[0]
}

// Max returns the largest sample, or 0 if empty.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	return c.samples[len(c.samples)-1]
}

// Mean returns the arithmetic mean, or 0 if empty.
func (c *CDF) Mean() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range c.samples {
		sum += v
	}
	return sum / float64(len(c.samples))
}

// Histogram counts samples into caller-defined bucket edges.
// A sample v lands in bucket i when edges[i] <= v < edges[i+1]; values below
// the first edge land in bucket 0 and values at or above the last edge land
// in the final (overflow) bucket.
type Histogram struct {
	edges  []float64
	counts []int64
	total  int64
}

// NewHistogram builds a histogram with the given ascending bucket edges.
// It panics if fewer than two edges are supplied or edges are not strictly
// ascending, because that is always a programming error.
func NewHistogram(edges ...float64) *Histogram {
	if len(edges) < 2 {
		panic("stats: NewHistogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: histogram edges must be strictly ascending")
		}
	}
	return &Histogram{
		edges:  append([]float64(nil), edges...),
		counts: make([]int64, len(edges)), // len(edges)-1 interior + 1 overflow
	}
}

// Add counts one sample.
func (h *Histogram) Add(v float64) {
	h.total++
	i := sort.SearchFloat64s(h.edges, v)
	// SearchFloat64s returns first index with edges[i] >= v.
	if i < len(h.edges) && h.edges[i] == v {
		// exact edge hit belongs to the bucket starting at that edge
		h.counts[i]++
		return
	}
	if i == 0 {
		h.counts[0]++
		return
	}
	h.counts[i-1]++
}

// Total reports the number of samples added.
func (h *Histogram) Total() int64 { return h.total }

// Bucket reports the count in bucket i (0-based; the final index is the
// overflow bucket for samples >= the last edge).
func (h *Histogram) Bucket(i int) int64 { return h.counts[i] }

// Fraction reports bucket i's share of all samples (0 when empty).
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// Counter tallies occurrences of string keys and produces ranked output.
type Counter struct {
	counts map[string]int64
	total  int64
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[string]int64)}
}

// Add increments key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments key by n.
func (c *Counter) AddN(key string, n int64) {
	c.counts[key] += n
	c.total += n
}

// Get returns the count for key.
func (c *Counter) Get(key string) int64 { return c.counts[key] }

// Total returns the sum of all counts.
func (c *Counter) Total() int64 { return c.total }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.counts) }

// Entry is one ranked counter row.
type Entry struct {
	Key      string
	Count    int64
	Fraction float64
}

// Top returns the n highest-count entries, ties broken by key for
// determinism. n <= 0 returns all entries.
func (c *Counter) Top(n int) []Entry {
	entries := make([]Entry, 0, len(c.counts))
	for k, v := range c.counts {
		var f float64
		if c.total > 0 {
			f = float64(v) / float64(c.total)
		}
		entries = append(entries, Entry{Key: k, Count: v, Fraction: f})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Count != entries[j].Count {
			return entries[i].Count > entries[j].Count
		}
		return entries[i].Key < entries[j].Key
	})
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	return entries
}

// Table renders aligned plain-text tables, in the style of the paper's
// tables, to embed in reports and bench output.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells render with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows reports the number of data rows added.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with enough precision to be meaningful.
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 0.01:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// FormatPercent renders a fraction in [0,1] as a percentage string.
func FormatPercent(f float64) string {
	return FormatFloat(f*100) + "%"
}

// DurationBucketer maps durations to the delay buckets the paper uses in
// Figure 5 ("<1min", "1min-1h", "1h-1d", ">1d").
type DurationBucketer struct{}

// Bucket names, in ascending delay order.
var DelayBuckets = []string{"<1min", "1min-1h", "1h-1d", ">1d"}

// DelayBucket classifies a decoy-to-unsolicited interval.
func DelayBucket(d time.Duration) string {
	switch {
	case d < time.Minute:
		return DelayBuckets[0]
	case d < time.Hour:
		return DelayBuckets[1]
	case d < 24*time.Hour:
		return DelayBuckets[2]
	default:
		return DelayBuckets[3]
	}
}
