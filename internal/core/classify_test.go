package core

import (
	"reflect"
	"testing"

	"shadowmeter/internal/correlate"
	"shadowmeter/internal/honeypot"
)

// TestClassifyChunksMatchesSnapshot runs a trial at the runner tests'
// tinyCore geometry and classifies its whole honeypot log twice, through
// fresh correlators holding the trial's send records: once over the log's
// in-place chunk views, once over a copied snapshot. The two must agree
// exactly, the views must not let an append reach the log, and capture
// times must not decrease anywhere in the log — across chunk boundaries
// included — since classifying chunk by chunk relies on that order.
func TestClassifyChunksMatchesSnapshot(t *testing.T) {
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
	e.RunPhaseII()
	log := e.World.Honeypots.Log

	views := log.ChunksFrom(0)
	if len(views) < 2 {
		t.Fatalf("trial logged %d captures in %d chunk(s); the test needs a chunk boundary", log.Len(), len(views))
	}
	prev := views[0][0].Time
	for k, v := range views {
		for i, c := range v {
			if c.Time.Before(prev) {
				t.Fatalf("capture %d of chunk %d at %v precedes the capture before it (%v)", i, k, c.Time, prev)
			}
			prev = c.Time
		}
	}

	replay := func() *correlate.Correlator {
		c := correlate.New(e.World.Codec)
		added := make(map[string]bool)
		for _, v := range views {
			for _, cp := range v {
				if cp.Label == "" || added[cp.Label] {
					continue
				}
				added[cp.Label] = true
				if s, ok := e.Correlator.SentByLabel(cp.Label); ok {
					c.AddSent(s)
				}
			}
		}
		return c
	}
	byChunk, bySnap := replay(), replay()
	got := byChunk.ClassifyChunks(views)
	want := bySnap.Classify(log.Snapshot())
	if len(want) == 0 {
		t.Fatal("trial produced no unsolicited events")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("chunk classification differs from snapshot classification (%d vs %d events)", len(got), len(want))
	}
	if gs, ws := byChunk.Stats(), bySnap.Stats(); gs != ws {
		t.Errorf("chunk classification stats %+v, snapshot classification %+v", gs, ws)
	}
	if n := len(e.EventsPhaseI) + len(e.EventsPhaseII); len(got) != n {
		t.Errorf("replay found %d unsolicited events, the trial %d", len(got), n)
	}

	// A view's capacity ends at its length, so appending to one copies it
	// rather than writing into the spare capacity of the log's last chunk,
	// where the next logged capture lands.
	for k, v := range views {
		if cap(v) != len(v) {
			t.Fatalf("chunk view %d has capacity %d beyond its length %d", k, cap(v), len(v))
		}
	}
	last := views[len(views)-1]
	grown := append(last, honeypot.Capture{Domain: "appended.invalid"})
	log.Append(honeypot.Capture{Domain: "logged.invalid"})
	if grown[len(last)].Domain != "appended.invalid" {
		t.Errorf("the log's next capture overwrote an append to a chunk view: %q", grown[len(last)].Domain)
	}
	if snap := log.Snapshot(); snap[len(snap)-1].Domain != "logged.invalid" {
		t.Errorf("log ends with %q after an append to a chunk view", snap[len(snap)-1].Domain)
	}
}
