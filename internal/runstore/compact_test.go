package runstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"testing"

	"shadowmeter/internal/telemetry"
)

// frameBytes encodes one record as a raw log frame, for tests that
// plant frames the Store API would refuse (duplicates, foreign configs).
func frameBytes(t testing.TB, rec TrialRecord) []byte {
	t.Helper()
	payload, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], recordMagic)
	binary.BigEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
	copy(frame[headerSize:], payload)
	return frame
}

// appendRaw appends raw bytes to a campaign's log behind the store's
// back, simulating a crashed writer or a foreign tool.
func appendRaw(t *testing.T, dir string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(LogPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedAppendRollsBack is the regression test for the mid-log
// corruption bug: a short or failed append used to leave torn bytes in
// the middle of the log, and because frames are not self-synchronizing,
// every record appended afterwards was stranded behind the undecodable
// frame and silently lost on the next open. The store must instead
// track its durable end and truncate back to it before the next append.
func TestFailedAppendRollsBack(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIndexed(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	durable, err := os.Stat(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// Inject a short write: half the frame reaches the file, then the
	// write reports failure — the torn-frame crash model, without a crash.
	s.writeHook = func(b []byte) (int, error) {
		n, werr := s.log.Write(b[:len(b)/2])
		if werr != nil {
			return n, werr
		}
		return n, io.ErrShortWrite
	}
	if _, err := s.AppendIndexed(testRecord(1)); err == nil {
		t.Fatal("short-write append reported success")
	}
	torn, err := os.Stat(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if torn.Size() <= durable.Size() {
		t.Fatalf("injected short write left no torn bytes (%d <= %d); the test lost its subject", torn.Size(), durable.Size())
	}

	// The next append must truncate the torn bytes away and land its
	// frame at the durable end — not after the garbage.
	s.writeHook = nil
	if _, err := s.AppendIndexed(testRecord(1)); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A from-scratch scan (no sidecar) must see both records and no torn
	// tail: the log is clean, not merely indexed around the damage.
	if err := os.Remove(HeadlinesPath(dir)); err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	r, err := Open(dir, set)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs := storedRecords(t, r)
	if len(recs) != 2 || recs[0].Trial != 0 || recs[1].Trial != 1 {
		t.Fatalf("after rollback recovery: %d records", len(recs))
	}
	if n := counterValue(t, set, "runstore_torn_tail_total"); n != 0 {
		t.Errorf("torn_tail = %d, want 0 (rollback truncated before the append)", n)
	}
}

// TestCompactNewestWins: compaction keeps exactly one frame per trial —
// the newest — and drops superseded duplicates and trailing garbage,
// shrinking the file.
func TestCompactNewestWins(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIndexed(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIndexed(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant a newer frame for trial 1 (the API refuses duplicates, a
	// crashed-and-rerun writer does not) plus torn garbage at the tail.
	newer := testRecord(1)
	newer.Headline["captures"] = 777
	appendRaw(t, dir, frameBytes(t, newer))
	appendRaw(t, dir, []byte("torn garbage"))

	before, err := os.Stat(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, telemetry.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kept != 2 {
		t.Errorf("kept = %d, want 2", cs.Kept)
	}
	if cs.DroppedFrames != 1 {
		t.Errorf("dropped frames = %d, want 1 (the superseded trial-1 frame)", cs.DroppedFrames)
	}
	if cs.BytesAfter >= before.Size() || cs.Reclaimed <= 0 {
		t.Errorf("compaction did not shrink the log: %d -> %d", before.Size(), cs.BytesAfter)
	}
	got, ok, err := s2.Get(1)
	if err != nil || !ok || got.Headline["captures"] != 777 {
		t.Errorf("Get(1) after compact = %+v, %v, %v; want the newer record", got, ok, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen cold: the compacted log plus the fresh sidecar must agree.
	r, err := Open(dir, telemetry.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Errorf("reopened compacted store holds %d records, want 2", r.Len())
	}
	got, ok, err = r.Get(1)
	if err != nil || !ok || got.Headline["captures"] != 777 {
		t.Errorf("reopened Get(1) = %+v, %v, %v", got, ok, err)
	}
}

// TestCompactCleanStoreIsByteStable: compacting a store with nothing to
// drop rewrites the log to identical bytes — frames are copied
// verbatim, never re-encoded, so resumed output stays byte-identical.
func TestCompactCleanStoreIsByteStable(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.AppendIndexed(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, telemetry.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if cs.Kept != 3 || cs.DroppedFrames != 0 || cs.Reclaimed != 0 {
		t.Errorf("clean compact stats = %+v", cs)
	}
	after, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("compacting a clean log changed its bytes")
	}
}

// TestCompactCrashSafety: a stale tmp file from a compaction that died
// before its rename must not poison the store — the old log stays
// intact and the next compaction publishes over the debris.
func TestCompactCrashSafety(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.AppendIndexed(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A compaction interrupted before rename leaves <log>.tmp with
	// arbitrary partial content. The real log is untouched by design.
	if err := os.WriteFile(LogPath(dir)+".tmp", []byte("half-written compaction debris"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, telemetry.NewSet())
	if err != nil {
		t.Fatalf("open with stale compaction tmp: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("store sees %d records with stale tmp present, want 2", r.Len())
	}
	cs, err := r.Compact()
	if err != nil {
		t.Fatalf("compact over stale tmp: %v", err)
	}
	if cs.Kept != 2 {
		t.Errorf("kept = %d, want 2", cs.Kept)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(LogPath(dir) + ".tmp"); err == nil {
		t.Error("compaction left its tmp file behind")
	}
	rr, err := Open(dir, telemetry.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if rr.Len() != 2 {
		t.Errorf("store holds %d records after recovery compaction, want 2", rr.Len())
	}
}

// TestCompactReadOnlyRefused: inspection tools must not be able to
// rewrite a campaign through a read-only handle.
func TestCompactReadOnlyRefused(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIndexed(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReadOnly(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Compact(); err == nil {
		t.Error("Compact on a read-only store did not fail")
	}
}

// TestCompactDropsOffPlanFrames: a record off the campaign plan — a seed
// the plan does not give its trial, or a trial past the plan — can never
// be resumed, since the runner checks the seed, and while it is stored
// the trial's re-run is refused as "already stored". Compact must drop
// such records, as Merge does, so the trial appends again.
func TestCompactDropsOffPlanFrames(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	stale := testRecord(1)
	stale.Seed = 99
	if _, err := s.AppendIndexed(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	// AppendIndexed refuses off-plan records, so they are planted as raw
	// frames, as a log written by an older build would hold them.
	appendRaw(t, dir, append(frameBytes(t, stale), frameBytes(t, testRecord(4))...))
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kept != 1 || cs.DroppedFrames != 2 {
		t.Errorf("compact stats = %+v, want 1 kept and 2 dropped", cs)
	}
	for _, trial := range []int{1, 4} {
		if _, ok, err := s.Get(trial); ok || err != nil {
			t.Errorf("Get(%d) after compact = ok %v, err %v; want the off-plan record gone", trial, ok, err)
		}
	}
	if _, err := s.AppendIndexed(testRecord(1)); err != nil {
		t.Fatalf("re-running trial 1 after compact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs := storedRecords(t, r)
	if len(recs) != 2 || recs[1].Trial != 1 || recs[1].Seed != 101 {
		t.Errorf("reopened store holds %+v, want trials 0 and 1 on plan", recs)
	}
}

// FuzzSalvage feeds arbitrary bytes, split into two source logs, to
// salvage under the test campaign's plan. It must never panic.
// Every output frame must decode, in ascending trial order with one
// frame per trial; each must appear byte for byte in the input, pass
// the plan's keep rule and be the frame its row points at. Salvaging the
// output again must return it unchanged. A crasher lands in
// testdata/fuzz/FuzzSalvage and belongs in the commit.
func FuzzSalvage(f *testing.F) {
	man := testManifest()
	dir := f.TempDir() + "/camp"
	s, err := Create(dir, man, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.AppendIndexed(testRecord(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	two, err := os.ReadFile(LogPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	first, second := frameBytes(f, testRecord(0)), frameBytes(f, testRecord(1))
	newer := testRecord(1)
	newer.Headline["captures"] = 777
	foreign := testRecord(2)
	foreign.ConfigHash = "cfg-other"
	offPlan := testRecord(3)
	offPlan.Seed = 99
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(two, uint16(0))
	f.Add(cat(first, []byte("garbage between frames"), second), uint16(len(first)))
	f.Add(two[:len(two)-5], uint16(0))
	f.Add(cat(first, second, frameBytes(f, newer)), uint16(len(first)+len(second)))
	f.Add(cat(two, frameBytes(f, foreign)), uint16(0))
	f.Add(cat(frameBytes(f, offPlan), two), uint16(3))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		k := int(cut) % (len(data) + 1)
		out, rows, c := salvage([][]byte{data[:k], data[k:]}, man)
		if c.decoded != len(rows)+c.superseded+c.dropped {
			t.Fatalf("counts %+v do not add up to %d rows", c, len(rows))
		}
		prev, n := -1, 0
		covered := walkFrames(out, false, summaryRead, func(rec TrialRecord, row HeadlineRow) {
			ref := row.ref
			frame := out[ref.Off : ref.Off+ref.Len]
			switch {
			case rec.Trial <= prev:
				t.Fatalf("trial %d follows trial %d", rec.Trial, prev)
			case !man.plans(rec):
				t.Fatalf("kept trial %d seed %d hash %q is off the plan", rec.Trial, rec.Seed, rec.ConfigHash)
			case !bytes.Contains(data, frame):
				t.Fatalf("trial %d frame is not a frame of the input", rec.Trial)
			case rows[rec.Trial].ref != ref:
				t.Fatalf("trial %d row points at %+v, frame is at %+v", rec.Trial, rows[rec.Trial].ref, ref)
			}
			prev, n = rec.Trial, n+1
		})
		if covered != int64(len(out)) || n != len(rows) {
			t.Fatalf("%d of %d output bytes decode as %d frames for %d rows", covered, len(out), n, len(rows))
		}
		again, rows2, c2 := salvage([][]byte{out}, man)
		if !bytes.Equal(again, out) || !sameRows(rows2, rows) || c2.decoded != n || c2.torn != 0 {
			t.Fatalf("salvaging the output changed it: %d -> %d bytes, counts %+v", len(out), len(again), c2)
		}
	})
}
