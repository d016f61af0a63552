package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Record is one run's result file: what the run printed, plus what a
// later comparison needs to group and order runs.
type Record struct {
	Workload        string    `json:"workload"`
	Seed            int64     `json:"seed"`
	Trace           bool      `json:"trace"`
	Seconds         float64   `json:"seconds"`
	StartedUnixNano int64     `json:"started_unix_nano"`
	Host            Host      `json:"host"`
	Problems        []string  `json:"problems,omitempty"`
	OpS             []float64 `json:"op_s,omitempty"`
	OpCPUS          []float64 `json:"op_cpu_s,omitempty"`
	OpCalibMS       []float64 `json:"op_calib_ms,omitempty"`
	Result          *Result   `json:"result"`
}

// Bound is one end-to-end metric of BENCHMARK.json.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Spec is the part of BENCHMARK.json a comparison reads.
type Spec struct {
	EndToEnd []Bound `json:"end_to_end"`
}

// ReadSpec parses BENCHMARK.json.
func ReadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// ReadRecords loads every untraced result record in dir, by workload, in
// the order the runs started.
func ReadRecords(dir string) (map[string][]Record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]Record)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil || rec.Result == nil {
			return nil, fmt.Errorf("%s: not a result record (%v)", p, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	for _, recs := range out {
		sort.Slice(recs, func(i, j int) bool { return recs[i].StartedUnixNano < recs[j].StartedUnixNano })
	}
	return out, nil
}

// Verdicts of a comparison row.
const (
	Better     = "better"
	Worse      = "worse"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// Row compares one metric on one workload between a parent set A and a
// change set B.
type Row struct {
	Workload, Metric string
	A, B             [3]float64 // first quartile, median, third quartile
	Wins, Pairs      int        // pairs in which B read better than A
	Verdict          string
}

// Compare applies BENCHMARK.json's bounds and the pairing rule: B is
// better only if it wins at least 9 of every 10 pairs (run i of A against
// run i of B, ties counting for neither) and the medians differ by more
// than A's interquartile range; worse if B's median is worse than A's by
// more than the bound; unresolved if A's own spread exceeds the bound;
// unchanged otherwise. More failed operations in B is always worse.
func Compare(spec *Spec, a, b map[string][]Record) []Row {
	var rows []Row
	for _, w := range workloadsOf(a, b) {
		ra, rb := a[w], b[w]
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) < 2 || len(vb) < 2 {
				continue
			}
			row := Row{Workload: w, Metric: m.Name, A: quartiles(va), B: quartiles(vb)}
			sign := 1.0 // positive when B is better
			if m.Better == "lower" {
				sign = -1
			}
			for i := 0; i < len(va) && i < len(vb); i++ {
				row.Pairs++
				if sign*(vb[i]-va[i]) > 0 {
					row.Wins++
				}
			}
			medA, medB := row.A[1], row.B[1]
			gain := sign * (medB - medA)
			iqrA := row.A[2] - row.A[0]
			switch {
			case -gain > m.Bound*math.Abs(medA):
				row.Verdict = Worse
			case 10*row.Wins >= 9*row.Pairs && math.Abs(medB-medA) > iqrA:
				row.Verdict = Better
			case iqrA > m.Bound*math.Abs(medA) && !allBetter(va, vb, sign):
				row.Verdict = Unresolved
			default:
				row.Verdict = Unchanged
			}
			rows = append(rows, row)
		}
		fa, fb := failed(ra), failed(rb)
		row := Row{Workload: w, Metric: "failed_ops", A: [3]float64{0, fa, 0}, B: [3]float64{0, fb, 0}, Verdict: Unchanged}
		if fb > fa {
			row.Verdict = Worse
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintRows renders a comparison, one row per workload and metric.
func PrintRows(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "%-17s %-13s %-40s %-40s %6s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %-13s %-40s %-40s %6s %s\n", r.Workload, r.Metric,
			fmt.Sprintf("%.6g [%.6g, %.6g]", r.A[1], r.A[0], r.A[2]),
			fmt.Sprintf("%.6g [%.6g, %.6g]", r.B[1], r.B[0], r.B[2]),
			fmt.Sprintf("%d/%d", r.Wins, r.Pairs), r.Verdict)
	}
}

func workloadsOf(a, b map[string][]Record) []string {
	var out []string
	for w := range a {
		if len(b[w]) > 0 {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

func values(recs []Record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failed(recs []Record) float64 {
	n := 0
	for _, r := range recs {
		n += r.Result.Failed
	}
	return float64(n)
}

// allBetter reports whether every run of B reads better than every run
// of A.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method); xs needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
