// Command shadowbench runs shadowmeter's end-to-end benchmark.
//
// Usage:
//
//	shadowbench -workload W [-seed N] [-seconds N] [-trace 0|1]
//	            [-trace-dir DIR] [-golden-dir DIR] [-write-golden] [-record-dir DIR]
//	shadowbench -workload all ...            each workload in its own child process
//	shadowbench compare [-benchmark FILE] A B   compare two directories of result records
//
// A run prints its result as one JSON object on the last line of stdout
// and writes the same result, with host calibration and any problems,
// as a record file under -record-dir. Run it from the repository root
// (bench/run.sh builds and runs it there).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"shadowmeter/bench"
)

func main() {
	if spec := os.Getenv(bench.FixtureEnv); spec != "" {
		os.Exit(bench.FixtureMain(spec))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("shadowbench", flag.ExitOnError)
	workload := fs.String("workload", "", "small-sweep, store-replay, or all")
	seed := fs.Int64("seed", 42, "input seed (42 tunes; 1729 is held out for claims)")
	seconds := fs.Int("seconds", 35, "length of the measured section")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer variant")
	traceDir := fs.String("trace-dir", "", "traced run output (default .bench_build/trace/<workload>-seed<N>)")
	goldenDir := fs.String("golden-dir", filepath.Join("bench", "golden"), "directory of <workload>-seed<N>.sha256 output digests")
	writeGolden := fs.Bool("write-golden", false, "record this run's output digests in -golden-dir instead of checking them")
	recordDir := fs.String("record-dir", filepath.Join(".bench_build", "results"), "directory for result records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "shadowbench: -trace must be 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(args)
	}
	if *traceDir == "" {
		*traceDir = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", *workload, *seed))
	}
	started := time.Now()
	res, err := bench.Run(bench.Options{
		Workload:    *workload,
		Seed:        *seed,
		Seconds:     time.Duration(*seconds) * time.Second,
		Trace:       *trace == 1,
		TraceDir:    *traceDir,
		WorkDir:     filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		GoldenDir:   *goldenDir,
		WriteGolden: *writeGolden,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "shadowbench:", err)
		return 1
	}
	for _, p := range res.Problems {
		fmt.Fprintln(os.Stderr, "shadowbench: problem:", p)
	}
	h := res.Host
	fmt.Fprintf(os.Stderr, "shadowbench: %s seed %d: %d operations; host calibration %.1f -> %.1f ms (drift %+.1f%%)\n",
		*workload, *seed, res.Attempted, h.CalibBeforeMS, h.CalibAfterMS, 100*h.Drift)
	if len(res.OpS) > 0 {
		fmt.Fprintf(os.Stderr, "shadowbench: %d operations timed: median %.4g s wall, %.4g s CPU\n",
			len(res.OpS), bench.Median(res.OpS), bench.Median(res.OpCPUS))
	}
	if h.Unstable {
		fmt.Fprintln(os.Stderr, "shadowbench: host_unstable: the calibration kernel drifted by more than 10% during the run")
	}
	rec := bench.Record{
		Workload: *workload, Seed: *seed, Trace: *trace == 1, Seconds: float64(*seconds),
		StartedUnixNano: started.UnixNano(), Host: h, Problems: res.Problems,
		OpS: res.OpS, OpCPUS: res.OpCPUS, OpCalibMS: res.OpCalibMS, Result: res,
	}
	if err := writeRecord(*recordDir, rec); err != nil {
		fmt.Fprintln(os.Stderr, "shadowbench: writing the result record:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shadowbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func writeRecord(dir string, rec bench.Record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", rec.Workload, rec.Seed, rec.Trace, rec.StartedUnixNano)
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// runAll runs every workload in a fresh child process, so peak RSS and a
// crash belong to one workload. It prints one line per workload: the
// name, a tab, and the child's result. A child that dies without a
// result counts as one failed operation.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shadowbench:", err)
		return 1
	}
	code := 0
	for _, w := range bench.Workloads {
		childArgs := append(append([]string(nil), args...), "-workload", w)
		var out bytes.Buffer
		cmd := exec.Command(exe, childArgs...)
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		runErr := cmd.Run()
		line := lastLine(out.Bytes())
		if runErr != nil || line == "" {
			fmt.Fprintf(os.Stderr, "shadowbench: %s crashed: %v\n", w, runErr)
			line = `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
			code = 1
		}
		fmt.Printf("%s\t%s\n", w, line)
	}
	return code
}

func lastLine(b []byte) string {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := sc.Text(); t != "" {
			last = t
		}
	}
	return last
}

func compare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition with the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: shadowbench compare [-benchmark FILE] PARENT_DIR CHANGE_DIR")
		return 2
	}
	s, err := bench.ReadSpec(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shadowbench compare:", err)
		return 2
	}
	a, errA := bench.ReadRecords(fs.Arg(0))
	b, errB := bench.ReadRecords(fs.Arg(1))
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "shadowbench compare:", errA, errB)
		return 2
	}
	rows := bench.Compare(s, a, b)
	bench.PrintRows(os.Stdout, rows)
	for _, r := range rows {
		if r.Verdict == bench.Worse {
			return 1
		}
	}
	return 0
}
