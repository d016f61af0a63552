package runstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// makeShard creates a shard store at dir holding the given trials.
func makeShard(t *testing.T, dir string, man Manifest, trials ...int) {
	t.Helper()
	s, err := Create(dir, man, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if _, err := s.AppendIndexed(testRecord(tr)); err != nil {
			t.Fatalf("append %d: %v", tr, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func shardedManifest(index, count int) Manifest {
	m := testManifest()
	m.ShardIndex = index
	m.ShardCount = count
	return m
}

func TestMergeDisjointShards(t *testing.T) {
	base := t.TempDir()
	a, b := filepath.Join(base, "a"), filepath.Join(base, "b")
	makeShard(t, a, shardedManifest(0, 2), 0, 1)
	makeShard(t, b, shardedManifest(1, 2), 2, 3)

	dst := filepath.Join(base, "merged")
	man, st, err := Merge(dst, []string{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if man.MergedFrom != 2 || man.ShardIndex != 0 || man.ShardCount != 0 {
		t.Errorf("merged manifest provenance = %+v, want merged-from 2 with shard geometry cleared", man)
	}
	if man.ConfigHash != "cfg-abc" || man.BaseSeed != 100 || man.Trials != 4 {
		t.Errorf("merged manifest identity = %+v", man)
	}
	if st.Sources != 2 || st.Records != 4 || st.Superseded != 0 || st.Dropped != 0 || st.TornBytes != 0 {
		t.Errorf("merge stats = %+v", st)
	}

	r, err := OpenReadOnly(dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs := storedRecords(t, r)
	if len(recs) != 4 {
		t.Fatalf("merged store holds %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.Trial != i || rec.Seed != 100+int64(i) {
			t.Errorf("record %d = trial %d seed %d", i, rec.Trial, rec.Seed)
		}
	}

	// A merged store resumes like any other: the manifest compare
	// normalizes provenance, so the pre-shard manifest matches.
	s2, err := OpenOrCreate(dst, testManifest(), nil)
	if err != nil {
		t.Fatalf("reopening merged store for resume: %v", err)
	}
	if s2.Len() != 4 {
		t.Errorf("reopened merged store holds %d records, want 4", s2.Len())
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeOverlapNewestWins pins the supersede rule for overlapping
// shards: a later-listed source wins, matching compaction's
// newest-record-wins semantics within one log.
func TestMergeOverlapNewestWins(t *testing.T) {
	base := t.TempDir()
	a, b := filepath.Join(base, "a"), filepath.Join(base, "b")
	makeShard(t, a, testManifest(), 0, 1)

	// Shard b re-ran trial 1 with a distinguishable headline.
	s, err := Create(b, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(1)
	rec.Headline["captures"] = 999
	if _, err := s.AppendIndexed(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(base, "ab")
	_, st, err := Merge(dst, []string{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || st.Superseded != 1 {
		t.Fatalf("merge stats = %+v, want 2 records with 1 superseded", st)
	}
	r, err := OpenReadOnly(dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, okRec, err := r.Get(1)
	if err != nil || !okRec {
		t.Fatalf("Get(1) = %v %v", okRec, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Headline["captures"] != 999 {
		t.Errorf("trial 1 captures = %v, want 999 (later-listed shard wins)", got.Headline["captures"])
	}

	// Reversing the argument order reverses the winner.
	dst2 := filepath.Join(base, "ba")
	if _, _, err := Merge(dst2, []string{b, a}, nil); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenReadOnly(dst2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := r2.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	if got2.Headline["captures"] == 999 {
		t.Error("trial 1 still carries the overlap record with the order reversed")
	}
}

// TestMergeTornShardLog drives the salvage scan: a torn tail costs its
// record, and mid-log garbage costs only the bytes until the next frame
// magic.
func TestMergeTornShardLog(t *testing.T) {
	base := t.TempDir()
	a := filepath.Join(base, "a")
	makeShard(t, a, testManifest(), 0, 1)
	data, err := os.ReadFile(LogPath(a))
	if err != nil {
		t.Fatal(err)
	}

	// Torn tail: the final record loses its last bytes.
	torn := filepath.Join(base, "torn")
	makeShard(t, torn, testManifest()) // creates the dir + manifest, empty log
	if err := os.WriteFile(LogPath(torn), data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(base, "from-torn")
	_, st, err := Merge(dst, []string{torn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 1 || st.TornBytes == 0 {
		t.Errorf("torn-tail merge stats = %+v, want 1 salvaged record and torn bytes", st)
	}

	// Mid-log garbage: both records survive, the junk is skipped.
	offs, err := LogOffsets(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 2 {
		t.Fatalf("fixture has %d records, want 2", len(offs))
	}
	junk := []byte("not a frame")
	mangled := append(append(append([]byte{}, data[:offs[1]]...), junk...), data[offs[1]:]...)
	mid := filepath.Join(base, "mid")
	makeShard(t, mid, testManifest())
	if err := os.WriteFile(LogPath(mid), mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	dst2 := filepath.Join(base, "from-mid")
	_, st2, err := Merge(dst2, []string{mid}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Records != 2 || st2.TornBytes != int64(len(junk)) {
		t.Errorf("mid-log merge stats = %+v, want 2 records and %d torn bytes", st2, len(junk))
	}

	// The salvaged output is clean: byte-identical to merging the
	// pristine shard.
	ref := filepath.Join(base, "from-clean")
	if _, _, err := Merge(ref, []string{a}, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(LogPath(ref))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(LogPath(dst2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("salvaged merge log differs from the clean merge log")
	}
}

// TestMergeV1Shard checks that Merge refuses a v1 shard, and a shard
// from a future store version, without creating the destination or
// touching the shard.
func TestMergeV1Shard(t *testing.T) {
	for _, v := range []int{1, StoreVersion + 1} {
		base := t.TempDir()
		a := filepath.Join(base, "a")
		makeShard(t, a, testManifest(), 0, 1)
		man := testManifest()
		man.Version = v
		if err := writeManifest(a, man); err != nil {
			t.Fatal(err)
		}
		if v == 1 {
			// v1 stores carried no sidecars.
			if err := os.Remove(HeadlinesPath(a)); err != nil {
				t.Fatal(err)
			}
		}
		logBefore, err := os.ReadFile(LogPath(a))
		if err != nil {
			t.Fatal(err)
		}

		dst := filepath.Join(base, "merged")
		want := fmt.Sprintf("store version %d", v)
		if _, _, err := Merge(dst, []string{a}, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: Merge = %v, want an error naming %q", v, err, want)
		}
		if _, err := os.Stat(dst); err == nil {
			t.Errorf("version %d: refused merge created %s", v, dst)
		}
		if logAfter, err := os.ReadFile(LogPath(a)); err != nil || !bytes.Equal(logBefore, logAfter) {
			t.Errorf("version %d: refused merge changed the shard log (err %v)", v, err)
		}
	}
}

func TestMergeRefusals(t *testing.T) {
	base := t.TempDir()
	a := filepath.Join(base, "a")
	makeShard(t, a, testManifest(), 0, 1)

	// No sources.
	if _, _, err := Merge(filepath.Join(base, "x"), nil, nil); err == nil {
		t.Error("empty merge succeeded")
	}

	// Config-hash mismatch between shards.
	foreign := filepath.Join(base, "foreign")
	fm := testManifest()
	fm.ConfigHash = "cfg-other"
	makeShard(t, foreign, fm)
	_, _, err := Merge(filepath.Join(base, "y"), []string{a, foreign}, nil)
	if err == nil || !strings.Contains(err.Error(), "refusing to merge") {
		t.Errorf("hash-mismatch merge: %v", err)
	}

	// Base-seed mismatch is the same refusal.
	drift := filepath.Join(base, "drift")
	dm := testManifest()
	dm.BaseSeed = 999
	makeShard(t, drift, dm)
	if _, _, err := Merge(filepath.Join(base, "z"), []string{a, drift}, nil); err == nil || !strings.Contains(err.Error(), "refusing to merge") {
		t.Errorf("seed-mismatch merge: %v", err)
	}

	// An existing campaign is never overwritten.
	if _, _, err := Merge(a, []string{a}, nil); err == nil || !strings.Contains(err.Error(), "already holds a campaign") {
		t.Errorf("merge onto existing campaign: %v", err)
	}
}

// TestMergeDropsForeignRecords covers the per-record guard: frames
// whose config hash, seed, or trial index are off the campaign's plan
// are dropped even when the shard manifest claims the right identity.
func TestMergeDropsForeignRecords(t *testing.T) {
	base := t.TempDir()
	good := filepath.Join(base, "good")
	makeShard(t, good, testManifest(), 0, 1)

	// A shard whose log carries records of a different campaign, behind
	// a manifest rewritten to claim this one.
	impostor := filepath.Join(base, "impostor")
	im := testManifest()
	im.ConfigHash = "cfg-other"
	s, err := Create(impostor, im, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord(2)
	rec.ConfigHash = "cfg-other"
	if _, err := s.AppendIndexed(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(impostor, testManifest()); err != nil {
		t.Fatal(err)
	}

	dst := filepath.Join(base, "merged")
	_, st, err := Merge(dst, []string{good, impostor}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 || st.Dropped != 1 {
		t.Errorf("merge stats = %+v, want 2 records with 1 foreign frame dropped", st)
	}

	// Off-plan trial indexes drop the same way: shrink a shard's claimed
	// plan so its high trials fall outside the merged plan.
	high := filepath.Join(base, "high")
	makeShard(t, high, testManifest(), 2, 3)
	shrunk := testManifest()
	shrunk.Trials = 2
	if err := writeManifest(high, shrunk); err != nil {
		t.Fatal(err)
	}
	low := filepath.Join(base, "low")
	lm := testManifest()
	lm.Trials = 2
	makeShard(t, low, lm, 0, 1)
	_, st2, err := Merge(filepath.Join(base, "merged2"), []string{low, high}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Records != 2 || st2.Dropped != 2 {
		t.Errorf("off-plan merge stats = %+v, want 2 records with 2 dropped", st2)
	}
}
