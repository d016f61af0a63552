package main

import (
	"os"
	"path/filepath"
	"testing"

	"shadowmeter/internal/runstore"
)

// TestLogFollowerPoll grows a trial log the way a live writer does —
// whole frames, then a frame torn mid-append and finished later — and
// checks that each record is returned by exactly one poll and that a
// torn tail is not consumed until it completes.
func TestLogFollowerPoll(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src")
	man := runstore.Manifest{Version: runstore.StoreVersion, ConfigHash: "cfg", BaseSeed: 5, Trials: 3, Scale: "test"}
	st, err := runstore.Create(src, man, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := runstore.TrialRecord{
			Trial: i, Seed: 5 + int64(i), ConfigHash: "cfg",
			Headline: map[string]float64{"captures": float64(i)},
			Events:   []runstore.EventRecord{{Label: "decoy", SentProto: "dns", DelayNS: int64(i)}},
		}
		if _, err := st.AppendIndexed(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(runstore.LogPath(src))
	if err != nil {
		t.Fatal(err)
	}
	offs, err := runstore.LogOffsets(src)
	if err != nil || len(offs) != 3 {
		t.Fatalf("source log offsets %v, %v", offs, err)
	}

	path := filepath.Join(t.TempDir(), "trials.log")
	f := logFollower{path: path}
	poll := func(step string, want ...int) {
		t.Helper()
		recs, err := f.poll()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if len(recs) != len(want) {
			t.Fatalf("%s: polled %d records, want trials %v", step, len(recs), want)
		}
		for i, rec := range recs {
			if rec.Trial != want[i] {
				t.Fatalf("%s: record %d is trial %d, want %d", step, i, rec.Trial, want[i])
			}
		}
	}
	grow := func(b []byte) {
		t.Helper()
		w, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	poll("no log yet")
	grow(full[:offs[1]])
	poll("first frame", 0)
	poll("nothing appended")
	torn := offs[2] + 5
	grow(full[offs[1]:torn])
	poll("second frame and a torn third", 1)
	if f.off != offs[2] {
		t.Fatalf("follower offset %d after a torn tail, want %d", f.off, offs[2])
	}
	poll("torn third unchanged")
	grow(full[torn:])
	poll("third frame completed", 2)
	poll("campaign done")
}
