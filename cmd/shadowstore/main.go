// Command shadowstore inspects and compares durable campaign stores
// written by shadowmeter -out: the longitudinal layer of the
// reproduction, where the paper's days-later replay behaviors become
// measurable across runs.
//
// Usage:
//
//	shadowstore list DIR...                     campaign summaries
//	shadowstore show [-trial N] [-stats] DIR    per-trial headlines, or one full record
//	shadowstore tail [-interval D] DIR          follow a (live) campaign's trial log
//	shadowstore diff [-all] DIR_A DIR_B         headline deltas (Figure 3 ratios, Table 2/3 counts)
//	shadowstore retention [-min-delay D] [-from D] [-to D] DIR...
//	                                            cross-campaign multi-use/delay analysis
//	shadowstore compact DIR                     rewrite the log: newest record per trial, drop dead bytes
//	shadowstore merge DST SRC...                fold shard stores into one fresh campaign
//
// Every command except compact and merge opens campaigns read-only:
// inspecting a live campaign never repairs (or otherwise touches) its
// log under the writer. compact is the one deliberate in-place writer —
// never run it while the campaign's batch runner is live. merge writes
// only its fresh destination; sources are read without ever being
// opened as stores.
//
// The summary commands (show's table, diff, windowed retention) are
// served from the store's columnar headline sidecar, and show -trial
// reads one record through the offset index: on an indexed campaign
// they touch kilobytes, not the event log (verify with show -stats).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	fs2 "io/fs" // fs is the conventional FlagSet name in this file
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"shadowmeter/internal/analysis"
	"shadowmeter/internal/correlate"
	"shadowmeter/internal/decoy"
	"shadowmeter/internal/honeypot"
	"shadowmeter/internal/runstore"
)

func usage() {
	fmt.Fprintf(os.Stderr, `shadowstore — inspect durable shadowmeter campaign stores

  shadowstore list DIR...                     campaign summaries
  shadowstore show [-trial N] [-stats] DIR    per-trial headlines, or one full record
  shadowstore tail [-interval D] DIR          follow a (live) campaign's trial log
  shadowstore diff [-all] DIR_A DIR_B         headline deltas between two campaigns
  shadowstore retention [-min-delay D] [-from D] [-to D] DIR...
                                              cross-campaign multi-use/delay analysis
  shadowstore compact DIR                     rewrite the log: newest record per trial
  shadowstore merge DST SRC...                fold shard stores into one fresh campaign
`)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("shadowstore: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = cmdList(args)
	case "show":
		err = cmdShow(args)
	case "tail":
		err = cmdTail(args)
	case "diff":
		err = cmdDiff(args)
	case "retention":
		err = cmdRetention(args)
	case "compact":
		err = cmdCompact(args)
	case "merge":
		err = cmdMerge(args)
	case "help", "-h", "-help", "--help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// openCampaign opens one campaign directory read-only.
func openCampaign(dir string) (*runstore.Store, error) {
	return runstore.OpenReadOnly(dir, nil)
}

func cmdList(dirs []string) error {
	if len(dirs) == 0 {
		return fmt.Errorf("list: need at least one campaign directory")
	}
	for _, dir := range dirs {
		st, err := openCampaign(dir)
		if err != nil {
			return err
		}
		man := st.Manifest()
		extra := ""
		if l := man.ShardLabel(); l != "" {
			extra = "  [" + l + "]"
		}
		if st.Stats().TornTailTruncations > 0 {
			extra += "  [torn tail]"
		}
		fmt.Printf("%-30s v%d  scale=%-6s  seeds %d..%d  records %d/%d  config %.12s%s\n",
			dir, man.Version, man.Scale, man.BaseSeed, man.BaseSeed+int64(man.Trials)-1,
			st.Len(), man.Trials, man.ConfigHash, extra)
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// printStoreStats emits one machine-greppable stderr line with the
// store's read-side counters next to the log size, so CI can assert the
// indexed paths stay O(record): an indexed `show -trial N` reads the
// sidecar plus one frame, never the whole log.
func printStoreStats(st *runstore.Store, dir string) {
	stats := st.Stats()
	var logSize int64
	if fi, err := os.Stat(runstore.LogPath(dir)); err == nil {
		logSize = fi.Size()
	}
	fmt.Fprintf(os.Stderr, "store stats: bytes_read %d log_size %d index_hits %d index_rebuilds %d records_read %d\n",
		stats.BytesRead, logSize, stats.IndexHits, stats.IndexRebuilds, stats.RecordsRead)
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	trial := fs.Int("trial", -1, "dump the full JSON record of one trial instead of the summary table")
	showStats := fs.Bool("stats", false, "print store read counters (bytes_read, index_hits, ...) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show: need exactly one campaign directory")
	}
	st, err := openCampaign(fs.Arg(0))
	if err != nil {
		return err
	}
	defer st.Close()
	if *showStats {
		defer printStoreStats(st, fs.Arg(0))
	}

	if *trial >= 0 {
		rec, ok, err := st.Get(*trial)
		if err != nil {
			return fmt.Errorf("show: %w", err)
		}
		if !ok {
			return fmt.Errorf("show: trial %d is not stored in %s", *trial, fs.Arg(0))
		}
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}

	man := st.Manifest()
	prov := ""
	switch {
	case man.ShardCount > 0:
		// The shard's trial window, derived the same way the runner
		// derives it: [i·T/N, (i+1)·T/N).
		from := man.Trials * man.ShardIndex / man.ShardCount
		to := man.Trials * (man.ShardIndex + 1) / man.ShardCount
		prov = fmt.Sprintf("\n  shard %d/%d of the trial plan (trials %d..%d)", man.ShardIndex, man.ShardCount, from, to-1)
	case man.MergedFrom > 0:
		prov = fmt.Sprintf("\n  merged from %d shard stores", man.MergedFrom)
	}
	fmt.Printf("campaign %s\n  store version %d, scale %s, config %s%s\n  seeds %d..%d, records %d/%d\n\n",
		fs.Arg(0), man.Version, man.Scale, man.ConfigHash, prov,
		man.BaseSeed, man.BaseSeed+int64(man.Trials)-1, st.Len(), man.Trials)
	fmt.Printf("%5s %8s %12s %10s %12s %10s %8s\n",
		"trial", "seed", "sent_decoys", "captures", "unsolicited", "observers", "events")
	// The summary table is served from the columnar headline sidecar:
	// no trial frame is ever decoded.
	for _, row := range st.Headlines() {
		fmt.Printf("%5d %8d %12.0f %10.0f %12.0f %10.0f %8d\n",
			row.Trial, row.Seed,
			row.Headline["sent_decoys"], row.Headline["captures"],
			row.Headline["unsolicited"], row.Headline["observer_addrs"], row.Events)
	}
	return nil
}

// cmdCompact is the one shadowstore command that writes: it opens the
// campaign writable and rewrites its log keeping the newest valid
// record per trial, dropping torn bytes, superseded duplicates, and
// foreign-config frames. Never run it under a live batch runner.
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("compact: need exactly one campaign directory")
	}
	dir := fs.Arg(0)
	st, err := runstore.Open(dir, nil)
	if err != nil {
		return err
	}
	cs, err := st.Compact()
	if err != nil {
		st.Close() //shadowlint:ignore droppederr compaction error is the primary failure
		return fmt.Errorf("compact: %w", err)
	}
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Printf("compacted %s: kept %d records, dropped %d frames, %d -> %d bytes (reclaimed %d)\n",
		dir, cs.Kept, cs.DroppedFrames, cs.BytesBefore, cs.BytesAfter, cs.Reclaimed)
	return nil
}

// cmdMerge folds shard stores into one fresh campaign directory — the
// fan-in of the `shadowmeter -shard i/N` data plane. It writes only the
// destination; sources are read as raw logs (never opened as stores),
// so merging never mutates a shard, even one still being written.
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("merge: need a destination and at least one source: merge DST SRC...")
	}
	dst, srcs := fs.Arg(0), fs.Args()[1:]
	man, ms, err := runstore.Merge(dst, srcs, nil)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	fmt.Printf("merged %d shard store(s) into %s: %d/%d trials, %d bytes (superseded %d, dropped %d, torn bytes %d)\n",
		ms.Sources, dst, ms.Records, man.Trials, ms.Bytes, ms.Superseded, ms.Dropped, ms.TornBytes)
	return nil
}

// cmdTail follows a campaign's trial log as its batch runner appends to
// it: every record already stored is printed immediately, then the log
// is polled and each newly completed trial printed as it lands, until
// the campaign holds all the trials its manifest promises.
//
// The follower is strictly read-only — it never opens a Store, so it
// can never trigger the writable-mode torn-tail repair under a live
// writer. A half-appended frame at the tail simply fails to decode on
// this poll and decodes on a later one; a writer restart that truncates
// a torn tail only removes bytes the follower never accepted as valid.
func cmdTail(args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	interval := fs.Duration("interval", 500*time.Millisecond, "poll interval for new records")
	follow := fs.Bool("follow", true, "poll until the campaign completes; -follow=false prints the stored trials and exits")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("tail: need exactly one campaign directory")
	}
	dir := fs.Arg(0)
	man, err := runstore.ReadManifest(dir)
	if err != nil {
		return err
	}
	fmt.Printf("tailing campaign %s\n  scale %s, config %.12s, seeds %d..%d, %d trials expected\n\n",
		dir, man.Scale, man.ConfigHash, man.BaseSeed, man.BaseSeed+int64(man.Trials)-1, man.Trials)
	fmt.Printf("%5s %8s %12s %10s %12s %10s %8s\n",
		"trial", "seed", "sent_decoys", "captures", "unsolicited", "observers", "events")

	follower := logFollower{path: runstore.LogPath(dir)}
	printed := 0
	for {
		recs, err := follower.poll()
		if err != nil {
			return fmt.Errorf("tail: reading trial log: %w", err)
		}
		for _, rec := range recs {
			fmt.Printf("%5d %8d %12.0f %10.0f %12.0f %10.0f %8d\n",
				rec.Trial, rec.Seed,
				rec.Headline["sent_decoys"], rec.Headline["captures"],
				rec.Headline["unsolicited"], rec.Headline["observer_addrs"], len(rec.Events))
		}
		printed += len(recs)
		if printed >= man.Trials {
			fmt.Printf("\ncampaign complete: %d/%d trials stored\n", printed, man.Trials)
			return nil
		}
		if !*follow {
			fmt.Printf("\ncampaign in progress: %d/%d trials stored\n", printed, man.Trials)
			return nil
		}
		time.Sleep(*interval)
	}
}

// logFollower reads a live trial log incrementally. Valid frames are
// append-only (repair only ever removes the torn, never-decoded tail), so
// the bytes before off are final and each poll reads only what lies past
// them: following a campaign costs O(log) in total, not O(log) per poll.
type logFollower struct {
	path string
	off  int64 // end of the last frame decoded
}

// poll returns the records completed since the previous poll. A torn or
// half-appended frame at the tail is not consumed: it decodes on a later
// poll, once its writer has finished it. A log not created yet holds no
// records.
func (f *logFollower) poll() ([]runstore.TrialRecord, error) {
	file, err := os.Open(f.path)
	if errors.Is(err, fs2.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil || fi.Size() <= f.off {
		return nil, err
	}
	buf := make([]byte, fi.Size()-f.off)
	n, err := file.ReadAt(buf, f.off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	recs, valid := runstore.DecodeRecords(buf[:n])
	f.off += valid
	return recs, nil
}

// means folds headline rows into one value per headline key. Rows come
// from the columnar sidecar, so diffing two campaigns reads kilobytes
// of summaries, never the event logs.
func means(rows []runstore.HeadlineRow) map[string]float64 {
	sums := make(map[string]float64)
	for _, row := range rows {
		for k, v := range row.Headline {
			sums[k] += v
		}
	}
	// Keys missing from some trials contribute 0, exactly like the batch
	// runner's aggregate.
	for k := range sums {
		sums[k] /= float64(len(rows))
	}
	return sums
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	all := fs.Bool("all", false, "print unchanged headline keys too")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: need exactly two campaign directories")
	}
	dirA, dirB := fs.Arg(0), fs.Arg(1)
	stA, err := openCampaign(dirA)
	if err != nil {
		return err
	}
	defer stA.Close()
	stB, err := openCampaign(dirB)
	if err != nil {
		return err
	}
	defer stB.Close()

	manA, manB := stA.Manifest(), stB.Manifest()
	fmt.Printf("A: %s  (seeds %d.., %d records, config %.12s)\n", dirA, manA.BaseSeed, stA.Len(), manA.ConfigHash)
	fmt.Printf("B: %s  (seeds %d.., %d records, config %.12s)\n", dirB, manB.BaseSeed, stB.Len(), manB.ConfigHash)
	if manA.ConfigHash != manB.ConfigHash {
		fmt.Println("note: campaigns ran different configurations; deltas mix config and seed effects")
	}
	if stA.Len() == 0 || stB.Len() == 0 {
		return fmt.Errorf("diff: both campaigns need at least one stored trial")
	}

	mA, mB := means(stA.Headlines()), means(stB.Headlines())
	keys := make(map[string]bool, len(mA)+len(mB))
	for k := range mA {
		keys[k] = true
	}
	for k := range mB {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	// Campaign totals first, then the per-artifact families — the same
	// reading order as the paper (Figure 3, then Tables 2 and 3).
	rank := func(k string) int {
		switch {
		case !strings.Contains(k, "/"):
			return 0
		case strings.HasPrefix(k, "figure3_ratio/"):
			return 1
		case strings.HasPrefix(k, "dest_ratio/"):
			return 2
		case strings.HasPrefix(k, "table2_located/"):
			return 3
		case strings.HasPrefix(k, "table3_observers/"):
			return 4
		default:
			return 5
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return rank(sorted[i]) < rank(sorted[j]) })

	fmt.Printf("\n%-44s %14s %14s %14s\n", "headline (mean per trial)", "A", "B", "delta")
	changed := 0
	for _, k := range sorted {
		a, b := mA[k], mB[k]
		if a == b && !*all {
			continue
		}
		if a != b {
			changed++
		}
		fmt.Printf("%-44s %14.6g %14.6g %+14.6g\n", k, a, b, b-a)
	}
	fmt.Printf("\n%d of %d headline keys differ\n", changed, len(sorted))
	return nil
}

// protoFromName maps a stored protocol name back to its decoy.Protocol.
func protoFromName(name string) (decoy.Protocol, bool) {
	for _, p := range decoy.Protocols {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// eventsOf reconstructs the minimal correlate.Unsolicited slice the
// retention analyses consume from a campaign's stored event records,
// restricted to replay delays inside [from, to] (to <= 0 means
// unbounded above). Trials whose delay range cannot intersect the
// window are pruned from the columnar sidecar without reading their
// log frames; events whose protocol names this build does not know
// (e.g. a store written by a newer build) are counted, not dropped
// silently.
func eventsOf(st *runstore.Store, from, to time.Duration) (events []correlate.Unsolicited, skipped int, err error) {
	fromNS, toNS := int64(from), int64(to)
	for _, row := range st.Headlines() {
		if !row.OverlapsDelayWindow(fromNS, toNS) {
			continue
		}
		rec, ok, err := st.Get(row.Trial)
		if err != nil {
			return nil, skipped, err
		}
		if !ok {
			continue
		}
		for _, ev := range rec.Events {
			if ev.DelayNS < fromNS || (toNS > 0 && ev.DelayNS > toNS) {
				continue
			}
			sp, ok := protoFromName(ev.SentProto)
			if !ok {
				skipped++
				continue
			}
			cp, ok := protoFromName(ev.CaptureProto)
			if !ok {
				skipped++
				continue
			}
			events = append(events, correlate.Unsolicited{
				Sent:    &correlate.Sent{Label: ev.Label, Protocol: sp, DstName: ev.DstName},
				Capture: honeypot.Capture{Protocol: cp},
				Delay:   time.Duration(ev.DelayNS),
			})
		}
	}
	return events, skipped, nil
}

func printRetention(label string, events []correlate.Unsolicited, minDelay time.Duration) {
	mu := analysis.MultiUseStats(events, minDelay)
	fmt.Printf("%s\n  unsolicited events: %d\n  decoys with events after %s: %d (>3 events: %.1f%%, >10: %.1f%%)\n",
		label, len(events), minDelay, mu.DecoysWithLateEvents,
		100*mu.FractionOver3, 100*mu.FractionOver10)
	day := (24 * time.Hour).Seconds()
	for _, p := range decoy.Protocols {
		cdf := analysis.DelayCDF(events, p, nil)
		if cdf.N() == 0 {
			continue
		}
		fmt.Printf("  %-5s delay CDF (n=%d): <=1min %.1f%%  <=1h %.1f%%  <=1d %.1f%%  <=10d %.1f%%\n",
			p, cdf.N(), 100*cdf.At(60), 100*cdf.At(3600), 100*cdf.At(day), 100*cdf.At(10*day))
	}
}

func cmdRetention(args []string) error {
	fs := flag.NewFlagSet("retention", flag.ExitOnError)
	minDelay := fs.Duration("min-delay", time.Hour, "multi-use threshold: count decoys still replayed after this delay (paper: 1h)")
	from := fs.Duration("from", 0, "only analyze events with replay delay >= this (delay-window slice, e.g. 1h)")
	to := fs.Duration("to", 0, "only analyze events with replay delay <= this (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("retention: need at least one campaign directory")
	}
	if *from < 0 || *to < 0 {
		return fmt.Errorf("retention: -from and -to must be non-negative durations")
	}
	if *to > 0 && *from > *to {
		return fmt.Errorf("retention: -from %s is after -to %s", *from, *to)
	}
	if *from > 0 || *to > 0 {
		fmt.Printf("delay window: %s .. %s\n\n", *from, windowTop(*to))
	}
	var combined []correlate.Unsolicited
	totalSkipped := 0
	for _, dir := range fs.Args() {
		st, err := openCampaign(dir)
		if err != nil {
			return err
		}
		events, skipped, err := eventsOf(st, *from, *to)
		if err != nil {
			st.Close() //shadowlint:ignore droppederr read error is the primary failure
			return fmt.Errorf("retention: %s: %w", dir, err)
		}
		if err := st.Close(); err != nil {
			return err
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "shadowstore: warning: %s: skipped %d events with unknown protocol names (store written by a different build?)\n", dir, skipped)
			totalSkipped += skipped
		}
		printRetention("campaign "+dir, events, *minDelay)
		combined = append(combined, events...)
	}
	if fs.NArg() > 1 {
		fmt.Println()
		printRetention(fmt.Sprintf("combined (%d campaigns)", fs.NArg()), combined, *minDelay)
		if totalSkipped > 0 {
			fmt.Fprintf(os.Stderr, "shadowstore: warning: %d events skipped in total; combined stats undercount\n", totalSkipped)
		}
	}
	return nil
}

// windowTop renders the -to bound, where 0 means unbounded.
func windowTop(to time.Duration) string {
	if to <= 0 {
		return "∞"
	}
	return to.String()
}
