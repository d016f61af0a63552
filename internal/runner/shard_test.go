package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"shadowmeter/internal/runstore"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func shardManifest(trials int, baseSeed int64, index, count int) runstore.Manifest {
	m := testStoreManifest(trials, baseSeed)
	m.ShardIndex = index
	m.ShardCount = count
	return m
}

// TestShardSlice pins the partition math: every geometry covers the
// plan exactly once with balanced contiguous windows.
func TestShardSlice(t *testing.T) {
	for trials := 1; trials <= 9; trials++ {
		for count := 1; count <= trials; count++ {
			covered := make([]int, trials)
			prevTo := 0
			for i := 0; i < count; i++ {
				s := ShardSlice(trials, i, count)
				if s.From != prevTo {
					t.Fatalf("ShardSlice(%d, %d, %d).From = %d, want %d (contiguous)", trials, i, count, s.From, prevTo)
				}
				if size := s.To - s.From; size < trials/count || size > trials/count+1 {
					t.Errorf("ShardSlice(%d, %d, %d) has %d trials, want balanced", trials, i, count, size)
				}
				for tr := s.From; tr < s.To; tr++ {
					covered[tr]++
				}
				prevTo = s.To
			}
			if prevTo != trials {
				t.Fatalf("ShardSlice(%d, _, %d) ends at %d, want %d", trials, count, prevTo, trials)
			}
			for tr, n := range covered {
				if n != 1 {
					t.Errorf("trials=%d count=%d: trial %d covered %d times", trials, count, tr, n)
				}
			}
		}
	}
}

// TestShardUnionDeterminism is the PR's acceptance invariant: partition
// a campaign into N shard stores, fold them with Merge, and the merged
// store is indistinguishable from the unsharded run — batch JSON and
// merged telemetry byte-identical to the cold run (every trial a store
// hit), every record equal to the unsharded warm store's, and the
// merged log byte-identical to a serial unsharded campaign log.
func TestShardUnionDeterminism(t *testing.T) {
	const trials, baseSeed = 4, 51
	cfg := Config{Trials: trials, Workers: 2, BaseSeed: baseSeed, Core: tinyCore()}

	cold := Run(cfg)
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	coldTele := cold.MergedTelemetryJSON()

	// Serial unsharded campaign: appends land in trial order, the byte
	// reference for merged logs.
	serialDir := filepath.Join(t.TempDir(), "serial")
	serialStore, err := runstore.Create(serialDir, testStoreManifest(trials, baseSeed), nil)
	if err != nil {
		t.Fatal(err)
	}
	serialCfg := cfg
	serialCfg.Workers = 1
	serialCfg.Store = serialStore
	if res := Run(serialCfg); res.StoreErr != nil {
		t.Fatal(res.StoreErr)
	}
	if err := serialStore.Close(); err != nil {
		t.Fatal(err)
	}
	serialLog, err := os.ReadFile(filepath.Join(serialDir, "trials.log"))
	if err != nil {
		t.Fatal(err)
	}
	serialRecords := readAllRecords(t, serialDir)

	for _, count := range []int{1, 2, trials} {
		base := t.TempDir()
		var shardDirs []string
		for i := 0; i < count; i++ {
			shardDirs = append(shardDirs, filepath.Join(base, fmt.Sprintf("shard%d", i)))
		}
		for i := 0; i < count; i++ {
			st, err := runstore.Create(shardDirs[i], shardManifest(trials, baseSeed, i, count), nil)
			if err != nil {
				t.Fatal(err)
			}
			scfg := cfg
			scfg.Store = st
			scfg.Slice = ShardSlice(trials, i, count)
			if res := Run(scfg); res.StoreErr != nil {
				t.Fatalf("shard %d/%d: %v", i, count, res.StoreErr)
			}
			want := scfg.Slice.To - scfg.Slice.From
			if st.Len() != want {
				t.Fatalf("shard %d/%d holds %d records, want %d", i, count, st.Len(), want)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}

		merged := filepath.Join(base, "merged")
		man, stats, err := runstore.Merge(merged, shardDirs, nil)
		if err != nil {
			t.Fatalf("merging %d shards: %v", count, err)
		}
		if man.Trials != trials || man.MergedFrom != count || man.ShardCount != 0 {
			t.Errorf("merged manifest = %+v", man)
		}
		if stats.Records != trials || stats.Dropped != 0 || stats.Superseded != 0 {
			t.Errorf("merge stats for %d shards = %+v", count, stats)
		}

		// Byte-level: the merged log equals the serial unsharded log.
		mergedLog, err := os.ReadFile(filepath.Join(merged, "trials.log"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mergedLog, serialLog) {
			t.Errorf("%d-shard merged log differs from the unsharded serial log", count)
		}

		// Record-level: every trial equal to the unsharded warm store's.
		for i, rec := range readAllRecords(t, merged) {
			if rec.Trial != serialRecords[i].Trial || rec.Seed != serialRecords[i].Seed ||
				!bytes.Equal(mustJSON(t, rec), mustJSON(t, serialRecords[i])) {
				t.Errorf("%d-shard merge: record %d differs from the unsharded store", count, i)
			}
		}

		// Output-level: resuming the merged store reproduces the cold
		// batch byte-for-byte without running a single trial.
		st, err := runstore.OpenOrCreate(merged, testStoreManifest(trials, baseSeed), nil)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Store = st
		rcfg.Resume = true
		res := Run(rcfg)
		if res.StoreErr != nil {
			t.Fatal(res.StoreErr)
		}
		gotJSON, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, coldJSON) {
			t.Errorf("%d-shard merge: resumed batch JSON differs from the cold run", count)
		}
		if !bytes.Equal(res.MergedTelemetryJSON(), coldTele) {
			t.Errorf("%d-shard merge: resumed merged telemetry differs from the cold run", count)
		}
		if hits := st.Stats().ResumeHits; hits != trials {
			t.Errorf("%d-shard merge: resume hits = %d, want %d", count, hits, trials)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCampaignExtension grows a finished 2-trial campaign to 4 trials
// via the manifest-upgrade path and checks the result is byte-identical
// to a cold 4-trial run, with the original trials served from the store.
func TestCampaignExtension(t *testing.T) {
	const baseSeed = 77
	dir := filepath.Join(t.TempDir(), "camp")
	st, err := runstore.Create(dir, testStoreManifest(2, baseSeed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := Run(Config{Trials: 2, Workers: 2, BaseSeed: baseSeed, Core: tinyCore(), Store: st}); res.StoreErr != nil {
		t.Fatal(res.StoreErr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-opening with a larger plan is an extension, not a mismatch.
	ext, err := runstore.OpenOrCreate(dir, testStoreManifest(4, baseSeed), nil)
	if err != nil {
		t.Fatalf("extension refused: %v", err)
	}
	if ext.Manifest().Trials != 4 {
		t.Fatalf("extended manifest trials = %d, want 4", ext.Manifest().Trials)
	}
	res := Run(Config{Trials: 4, Workers: 2, BaseSeed: baseSeed, Core: tinyCore(), Store: ext, Resume: true})
	if res.StoreErr != nil {
		t.Fatal(res.StoreErr)
	}
	extJSON, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if hits := ext.Stats().ResumeHits; hits != 2 {
		t.Errorf("resume hits = %d, want 2 (the original trials)", hits)
	}
	if err := ext.Close(); err != nil {
		t.Fatal(err)
	}

	cold := Run(Config{Trials: 4, Workers: 2, BaseSeed: baseSeed, Core: tinyCore()})
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(extJSON, coldJSON) {
		t.Error("extended campaign output differs from the cold run at the larger count")
	}
	if res.MergedTelemetryJSON() == nil || !bytes.Equal(res.MergedTelemetryJSON(), cold.MergedTelemetryJSON()) {
		t.Error("extended campaign merged telemetry differs from the cold run")
	}
}

func readAllRecords(t *testing.T, dir string) []runstore.TrialRecord {
	t.Helper()
	st, err := runstore.OpenReadOnly(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var recs []runstore.TrialRecord
	for _, row := range st.Headlines() {
		rec, ok, err := st.Get(row.Trial)
		if err != nil || !ok {
			t.Fatalf("Get(%d) = ok %v, err %v", row.Trial, ok, err)
		}
		recs = append(recs, rec)
	}
	return recs
}
