package runner

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"testing"

	"shadowmeter/internal/runstore"
	"shadowmeter/internal/telemetry"
)

func testStoreManifest(trials int, baseSeed int64) runstore.Manifest {
	return runstore.Manifest{
		Version:    runstore.StoreVersion,
		ConfigHash: CampaignHash(tinyCore()),
		BaseSeed:   baseSeed,
		Trials:     trials,
		Scale:      "test",
	}
}

// TestResumeDeterminism is the acceptance contract of the store: run a
// campaign with persistence, delete the last records (simulating an
// interrupted batch), resume — and get batch JSON and merged telemetry
// byte-identical to the uninterrupted run, with the surviving trials
// served from the store.
func TestResumeDeterminism(t *testing.T) {
	const trials, baseSeed = 4, 21
	cfg := Config{Trials: trials, Workers: 2, BaseSeed: baseSeed, Core: tinyCore()}

	cold := Run(cfg)
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	coldTele := cold.MergedTelemetryJSON()

	// Warm run: same batch, persisted as it goes by the streaming
	// consumer. Workers=2 also exercises the reorder buffer under -race.
	// The store must not change stdout.
	dir := t.TempDir() + "/camp"
	st, err := runstore.Create(dir, testStoreManifest(trials, baseSeed), nil)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.Store = st
	warm := Run(warmCfg)
	if warm.StoreErr != nil {
		t.Fatalf("persisting trials: %v", warm.StoreErr)
	}
	warmJSON, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Error("persisting a batch changed its JSON output")
	}
	if st.Len() != trials {
		t.Fatalf("store holds %d records, want %d", st.Len(), trials)
	}
	// The Result drops events once folded; the retention record lives in
	// the store, so verify it there.
	for _, tr := range warm.Trials {
		if rec, ok, err := st.Get(tr.Trial); err != nil || !ok || len(rec.Events) == 0 {
			t.Errorf("trial %d persisted no events for retention analysis (ok=%v err=%v)", tr.Trial, ok, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupt: drop the last two records from the log. The streaming
	// consumer persists in trial order, so trials 0 and 1 survive — but
	// resume must not depend on that either way.
	offs, err := runstore.LogOffsets(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != trials {
		t.Fatalf("log holds %d records, want %d", len(offs), trials)
	}
	if err := os.Truncate(runstore.LogPath(dir), offs[2]); err != nil {
		t.Fatal(err)
	}

	// Resume: the two surviving trials come from the store, the two
	// dropped ones re-run — and the output is byte-identical to cold.
	set := telemetry.NewSet()
	st2, err := runstore.Open(dir, set)
	if err != nil {
		t.Fatal(err)
	}
	resumeCfg := cfg
	resumeCfg.Store = st2
	resumeCfg.Resume = true
	resumed := Run(resumeCfg)
	if resumed.StoreErr != nil {
		t.Fatalf("persisting re-run trials: %v", resumed.StoreErr)
	}
	resumedJSON, err := resumed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedJSON, coldJSON) {
		t.Errorf("resumed batch JSON differs from cold run:\n--- cold\n%s\n--- resumed\n%s", coldJSON, resumedJSON)
	}
	if tele := resumed.MergedTelemetryJSON(); !bytes.Equal(tele, coldTele) {
		t.Error("resumed merged telemetry differs from cold run")
	}

	stats := st2.Stats()
	if stats.ResumeHits != 2 {
		t.Errorf("resume hits = %d, want 2", stats.ResumeHits)
	}
	if stats.RecordsWritten != 2 {
		t.Errorf("records written on resume = %d, want 2", stats.RecordsWritten)
	}
	served, ran := 0, 0
	for _, tr := range resumed.Trials {
		if tr.Resumed {
			served++
		} else {
			ran++
		}
	}
	if served != 2 || ran != 2 {
		t.Errorf("served=%d ran=%d, want 2/2", served, ran)
	}
	if st2.Len() != trials {
		t.Errorf("store holds %d records after resume, want %d", st2.Len(), trials)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingStoreDeterminism sweeps the worker counts the streaming
// pipeline must be invisible at — 1 (pure serial fold), 4 (reorder
// buffer active), 16 (clamped to the trial count) — against a storeless
// serial reference, both persisting cold and serving the whole batch
// back on resume. Batch JSON and merged telemetry must be byte-identical
// in every cell; run under -race this also proves the consumer fold,
// store appends, and monitor-free paths are race-clean.
func TestStreamingStoreDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep is slow")
	}
	const trials, baseSeed = 4, 61
	cfg := Config{Trials: trials, BaseSeed: baseSeed, Core: tinyCore()}

	ref := Run(cfg) // workers: one per trial
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	refTele := ref.MergedTelemetryJSON()

	for _, workers := range []int{1, 4, 16} {
		dir := t.TempDir() + "/camp"
		st, err := runstore.Create(dir, testStoreManifest(trials, baseSeed), nil)
		if err != nil {
			t.Fatal(err)
		}
		warmCfg := cfg
		warmCfg.Workers = workers
		warmCfg.Store = st
		warm := Run(warmCfg)
		if warm.StoreErr != nil {
			t.Fatalf("workers=%d: persisting trials: %v", workers, warm.StoreErr)
		}
		warmJSON, err := warm.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(warmJSON, refJSON) {
			t.Errorf("workers=%d: persisted batch JSON differs from storeless reference", workers)
		}
		if !bytes.Equal(warm.MergedTelemetryJSON(), refTele) {
			t.Errorf("workers=%d: persisted merged telemetry differs from storeless reference", workers)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		st2, err := runstore.Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		resumeCfg := warmCfg
		resumeCfg.Store = st2
		resumeCfg.Resume = true
		resumed := Run(resumeCfg)
		if resumed.StoreErr != nil {
			t.Fatalf("workers=%d: resume store error: %v", workers, resumed.StoreErr)
		}
		resumedJSON, err := resumed.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resumedJSON, refJSON) {
			t.Errorf("workers=%d: fully resumed batch JSON differs from storeless reference", workers)
		}
		if !bytes.Equal(resumed.MergedTelemetryJSON(), refTele) {
			t.Errorf("workers=%d: fully resumed merged telemetry differs from storeless reference", workers)
		}
		if stats := st2.Stats(); stats.ResumeHits != trials {
			t.Errorf("workers=%d: resume hits = %d, want %d", workers, stats.ResumeHits, trials)
		}
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactedResumeDeterminism is the compaction acceptance contract:
// a batch resumed over a compacted store must be byte-identical to the
// cold run — both when compaction ran on a partial campaign before the
// resume filled it, and when a complete campaign is compacted and then
// served entirely from the store.
func TestCompactedResumeDeterminism(t *testing.T) {
	const trials, baseSeed = 3, 51
	cfg := Config{Trials: trials, Workers: 2, BaseSeed: baseSeed, Core: tinyCore()}

	cold := Run(cfg)
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	coldTele := cold.MergedTelemetryJSON()

	dir := t.TempDir() + "/camp"
	st, err := runstore.Create(dir, testStoreManifest(trials, baseSeed), nil)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.Store = st
	if warm := Run(warmCfg); warm.StoreErr != nil {
		t.Fatalf("persisting trials: %v", warm.StoreErr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupt the campaign (drop the last record), compact the partial
	// store, then resume over the compacted log.
	offs, err := runstore.LogOffsets(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(runstore.LogPath(dir), offs[2]); err != nil {
		t.Fatal(err)
	}
	st2, err := runstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Compact(); err != nil {
		t.Fatalf("compacting partial campaign: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3, err := runstore.Open(dir, telemetry.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	resumeCfg := cfg
	resumeCfg.Store = st3
	resumeCfg.Resume = true
	resumed := Run(resumeCfg)
	if resumed.StoreErr != nil {
		t.Fatalf("persisting re-run trials: %v", resumed.StoreErr)
	}
	resumedJSON, err := resumed.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedJSON, coldJSON) {
		t.Error("batch resumed over a compacted partial store differs from the cold run")
	}
	if stats := st3.Stats(); stats.ResumeHits != 2 {
		t.Errorf("resume hits over compacted partial store = %d, want 2", stats.ResumeHits)
	}
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}

	// Compact the now-complete campaign and serve the whole batch from it.
	st4, err := runstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st4.Compact(); err != nil {
		t.Fatalf("compacting complete campaign: %v", err)
	}
	if err := st4.Close(); err != nil {
		t.Fatal(err)
	}
	st5, err := runstore.Open(dir, telemetry.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	fullCfg := cfg
	fullCfg.Store = st5
	fullCfg.Resume = true
	full := Run(fullCfg)
	if full.StoreErr != nil {
		t.Fatalf("store error on fully resumed batch: %v", full.StoreErr)
	}
	fullJSON, err := full.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fullJSON, coldJSON) {
		t.Error("batch served entirely from a compacted store differs from the cold run")
	}
	if tele := full.MergedTelemetryJSON(); !bytes.Equal(tele, coldTele) {
		t.Error("merged telemetry served from a compacted store differs from the cold run")
	}
	if stats := st5.Stats(); stats.ResumeHits != trials {
		t.Errorf("resume hits over compacted complete store = %d, want %d", stats.ResumeHits, trials)
	}
	if err := st5.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRejectsForeignRecords: a record whose seed or config hash
// does not match the campaign plan must be re-run, not served.
func TestResumeMismatchedSeedReruns(t *testing.T) {
	cfg := Config{Trials: 2, Workers: 1, BaseSeed: 31, Core: tinyCore()}
	dir := t.TempDir() + "/camp"
	man := testStoreManifest(2, 31)
	created, err := runstore.Create(dir, man, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := created.Close(); err != nil {
		t.Fatal(err)
	}
	// Trial 0 stored under a different seed: stale plan, must not be
	// served even though the trial index matches. AppendIndexed refuses
	// such a record, so it is planted as a raw frame, as a log written
	// by an older build would hold it, and the open's scan indexes it.
	appendRawFrame(t, runstore.LogPath(dir), runstore.TrialRecord{
		Trial: 0, Seed: 99, ConfigHash: man.ConfigHash,
		Headline: map[string]float64{"captures": 1},
	})
	st, err := runstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}

	resumeCfg := cfg
	resumeCfg.Store = st
	resumeCfg.Resume = true
	res := Run(resumeCfg)
	// The re-run of trial 0 collides with the stale record on Append;
	// that surfaces as a store error rather than silently serving stale
	// data or duplicating the record.
	if res.StoreErr == nil {
		t.Error("stale record did not surface a store error")
	}
	if res.Trials[0].Resumed {
		t.Error("trial with mismatched seed was served from the store")
	}
	if stats := st.Stats(); stats.ResumeHits != 0 {
		t.Errorf("resume hits = %d, want 0", stats.ResumeHits)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendRawFrame appends rec to a trial log as one frame (magic, payload
// length, payload CRC32, JSON payload) behind the store's back.
func appendRawFrame(t *testing.T, path string, rec runstore.TrialRecord) {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.BigEndian.AppendUint32(nil, 0x53485231) // "SHR1"
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
