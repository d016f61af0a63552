package runstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shadowmeter/internal/telemetry"
)

// TestStaleIndexRebuild: sidecars stamped with a different log size are
// caches gone stale, not errors — the store falls back to a full scan,
// counts the rebuild, and (writable) republishes fresh sidecars.
func TestStaleIndexRebuild(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Shrink the log behind the sidecars' back: they now describe frames
	// past the end of the file.
	offs, err := LogOffsets(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(LogPath(dir), offs[2]); err != nil {
		t.Fatal(err)
	}

	set := telemetry.NewSet()
	r, err := Open(dir, set)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("stale-index open sees %d records, want 2", r.Len())
	}
	if n := counterValue(t, set, "runstore_index_rebuilds_total"); n != 1 {
		t.Errorf("index_rebuilds = %d, want 1", n)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Close republished the sidecars; the next open is indexed again.
	set2 := telemetry.NewSet()
	r2, err := Open(dir, set2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 2 {
		t.Errorf("reopen after rebuild sees %d records, want 2", r2.Len())
	}
	if n := counterValue(t, set2, "runstore_index_rebuilds_total"); n != 0 {
		t.Errorf("index_rebuilds on reopen = %d, want 0", n)
	}
	if n := counterValue(t, set2, "runstore_index_hits_total"); n == 0 {
		t.Error("index_hits on reopen = 0, want indexed open")
	}
}

// TestCorruptLengthFrame: a frame header whose length field is garbage
// (huge, would wrap to negative on 32-bit ints) must be rejected by
// bound and treated as a torn tail — never sized into an allocation.
func TestCorruptLengthFrame(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A frame claiming a ~4 GiB payload, backed by 4 bytes.
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], recordMagic)
	binary.BigEndian.PutUint32(hdr[4:8], 0xFFFFFF00)
	binary.BigEndian.PutUint32(hdr[8:12], 0)
	appendRaw(t, dir, append(hdr[:], 'j', 'u', 'n', 'k'))

	set := telemetry.NewSet()
	r, err := Open(dir, set)
	if err != nil {
		t.Fatalf("open over corrupt length field: %v", err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Errorf("store sees %d records, want 1", r.Len())
	}
	if n := counterValue(t, set, "runstore_torn_tail_total"); n != 1 {
		t.Errorf("torn_tail = %d, want 1 (corrupt frame truncated)", n)
	}
	if got, ok, err := r.Get(0); err != nil || !ok || got.Seed != 100 {
		t.Errorf("Get(0) = %+v, %v, %v", got, ok, err)
	}
}

// TestMissingSidecarsRebuild: a campaign whose index.bin and
// headlines.col are gone (a crash before Close published them, or an
// operator deleting caches) reopens through one log scan, resumes,
// appends, and republishes both sidecars on Close.
func TestMissingSidecarsRebuild(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sidecars := []string{filepath.Join(dir, indexName), filepath.Join(dir, headlinesName)}
	for _, p := range sidecars {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	set := telemetry.NewSet()
	rw, err := OpenOrCreate(dir, testManifest(), set)
	if err != nil {
		t.Fatalf("resuming a campaign without sidecars: %v", err)
	}
	if rw.Len() != 2 {
		t.Fatalf("rebuilt index holds %d records, want 2", rw.Len())
	}
	if n := counterValue(t, set, "runstore_index_rebuilds_total"); n != 1 {
		t.Errorf("index_rebuilds = %d, want 1", n)
	}
	if got, ok, err := rw.Get(1); err != nil || !ok || got.Seed != 101 {
		t.Errorf("Get(1) over the rebuilt index = %+v, %v, %v", got, ok, err)
	}
	if err := rw.Append(testRecord(2)); err != nil {
		t.Fatalf("appending after the rebuild: %v", err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range sidecars {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("Close did not republish %s: %v", filepath.Base(p), err)
		}
	}

	set2 := telemetry.NewSet()
	r, err := Open(dir, set2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := counterValue(t, set2, "runstore_index_rebuilds_total"); n != 0 {
		t.Errorf("index_rebuilds on reopen = %d, want 0 (sidecars republished)", n)
	}
	recs := storedRecords(t, r)
	if len(recs) != 3 {
		t.Fatalf("reopened campaign holds %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Trial != i || rec.Seed != 100+int64(i) {
			t.Errorf("record %d = trial %d seed %d", i, rec.Trial, rec.Seed)
		}
	}
}

// bigRecord pads a record with enough event payload that whole-log
// reads and single-frame reads are orders of magnitude apart.
func bigRecord(trial int) TrialRecord {
	rec := testRecord(trial)
	rec.Events = nil
	for i := 0; i < 40; i++ {
		rec.Events = append(rec.Events, EventRecord{
			Label:        fmt.Sprintf("decoy-%d-%d", trial, i),
			SentProto:    "DNS",
			CaptureProto: "HTTP",
			DstName:      strings.Repeat("x", 120),
			DelayNS:      int64(i) * 1e9,
		})
	}
	return rec
}

// TestIndexedReadsAreO1 is the O(1)-seek acceptance test: on a
// 100-trial campaign, an indexed open plus one Get must read the
// sidecars and one frame — a small fraction of the log — and never
// trigger a scan.
func TestIndexedReadsAreO1(t *testing.T) {
	dir := t.TempDir() + "/camp"
	man := testManifest()
	man.Trials = 100
	s, err := Create(dir, man, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Append(bigRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	set := telemetry.NewSet()
	r, err := Open(dir, set)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, ok, err := r.Get(57); err != nil || !ok || got.Trial != 57 {
		t.Fatalf("Get(57) = %+v, %v, %v", got, ok, err)
	}
	stats := r.Stats()
	if stats.IndexRebuilds != 0 {
		t.Errorf("index_rebuilds = %d, want 0", stats.IndexRebuilds)
	}
	if stats.IndexHits == 0 {
		t.Error("index_hits = 0, want indexed lookups")
	}
	if stats.RecordsRead != 1 {
		t.Errorf("records_read = %d, want 1 (only the requested frame decodes)", stats.RecordsRead)
	}
	// Sidecars plus one frame must stay well under the log: the 4x
	// margin keeps the assertion meaningful without being brittle.
	if stats.BytesRead*4 >= fi.Size() {
		t.Errorf("indexed open+Get read %d bytes of a %d-byte log — not O(record)", stats.BytesRead, fi.Size())
	}
}
