package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"shadowmeter/internal/correlate"
	"shadowmeter/internal/decoy"
)

// oldPathsWithUnsolicited is the grouping Phase II built its jobs from
// before sweepJobs: every unsolicited event copied into a per-path slice.
func oldPathsWithUnsolicited(events []correlate.Unsolicited) map[correlate.PathKey][]correlate.Unsolicited {
	out := make(map[correlate.PathKey][]correlate.Unsolicited)
	for _, u := range events {
		k := correlate.PathKey{VP: u.Sent.VP, Dst: u.Sent.Dst.Addr}
		out[k] = append(out[k], u)
	}
	return out
}

// oldSweepJobs is the job list runPhaseII derived from that grouping, one
// job per formatted (VP, destination, protocol) ID.
func oldSweepJobs(events []correlate.Unsolicited) []sweepJob {
	var jobs []sweepJob
	seen := make(map[string]bool)
	for key, evs := range oldPathsWithUnsolicited(events) {
		for _, u := range evs {
			id := fmt.Sprintf("%v|%v|%d", key.VP, key.Dst, u.Sent.Protocol)
			if seen[id] {
				continue
			}
			seen[id] = true
			jobs = append(jobs, sweepJob{key: key, proto: u.Sent.Protocol, name: u.Sent.DstName})
		}
	}
	return jobs
}

// TestSweepJobsMatchPathGrouping runs Phase I of a trial at the runner
// tests' tinyCore geometry and checks that sweepJobs yields exactly the
// jobs the per-path grouping did (as a set: runPhaseII sorts them), over
// exactly the grouping's paths.
func TestSweepJobsMatchPathGrouping(t *testing.T) {
	e := NewExperiment(Config{
		Seed:                 3,
		VPsPerGlobalProvider: 2,
		VPsPerCNProvider:     1,
		WebSites:             30,
		WebASes:              8,
		DNSRounds:            1,
		MaxSweepsPerProtocol: 40,
	})
	e.ScreenPairResolvers()
	e.RunPhaseI()
	events := e.EventsPhaseI
	if len(events) == 0 {
		t.Fatal("Phase I produced no unsolicited events")
	}
	order := func(jobs []sweepJob) []sweepJob {
		sort.Slice(jobs, func(i, j int) bool {
			a, b := jobs[i], jobs[j]
			if a.key.VP != b.key.VP {
				return a.key.VP.Uint32() < b.key.VP.Uint32()
			}
			if a.key.Dst != b.key.Dst {
				return a.key.Dst.Uint32() < b.key.Dst.Uint32()
			}
			return a.proto < b.proto
		})
		return jobs
	}
	got, want := order(sweepJobs(events)), order(oldSweepJobs(events))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sweepJobs gave %d jobs, the path grouping %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	protos := make(map[decoy.Protocol]bool)
	for _, j := range got {
		protos[j.proto] = true
	}
	if len(protos) < 2 {
		t.Errorf("all %d jobs share one protocol; the fixture should leak on more than one", len(got))
	}
	paths := make(map[correlate.PathKey]struct{})
	for _, j := range got {
		paths[j.key] = struct{}{}
	}
	if n := len(oldPathsWithUnsolicited(events)); len(paths) != n {
		t.Errorf("jobs cover %d paths, the grouping %d", len(paths), n)
	}
}
