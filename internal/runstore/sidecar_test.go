package runstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"shadowmeter/internal/telemetry"
)

// TestStaleIndexRebuild: a sidecar stamped with a different log size is
// a cache gone stale, not an error — the store falls back to a full
// scan, counts the rebuild, and (writable) republishes a fresh sidecar.
func TestStaleIndexRebuild(t *testing.T) {
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

	// Shrink the log behind the sidecar's back: it now describes frames
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

	// Close republished the sidecar; the next open is indexed again.
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
	if _, err := s.AppendIndexed(testRecord(0)); err != nil {
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

// TestMissingSidecarsRebuild: a campaign whose headlines.col is gone (a
// crash before Close published it, or an operator deleting caches)
// reopens through one log scan, resumes, appends, and republishes the
// sidecar on Close.
func TestMissingSidecarsRebuild(t *testing.T) {
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
	if err := os.Remove(HeadlinesPath(dir)); err != nil {
		t.Fatal(err)
	}

	set := telemetry.NewSet()
	rw, err := OpenOrCreate(dir, testManifest(), set)
	if err != nil {
		t.Fatalf("resuming a campaign without a sidecar: %v", err)
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
	if _, err := rw.AppendIndexed(testRecord(2)); err != nil {
		t.Fatalf("appending after the rebuild: %v", err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(HeadlinesPath(dir)); err != nil {
		t.Errorf("Close did not republish the sidecar: %v", err)
	}

	set2 := telemetry.NewSet()
	r, err := Open(dir, set2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := counterValue(t, set2, "runstore_index_rebuilds_total"); n != 0 {
		t.Errorf("index_rebuilds on reopen = %d, want 0 (sidecar republished)", n)
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
// sidecar and one frame — a small fraction of the log — and never
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
		if _, err := s.AppendIndexed(bigRecord(i)); err != nil {
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
	// The sidecar plus one frame must stay well under the log: the 4x
	// margin keeps the assertion meaningful without being brittle.
	if stats.BytesRead*4 >= fi.Size() {
		t.Errorf("indexed open+Get read %d bytes of a %d-byte log — not O(record)", stats.BytesRead, fi.Size())
	}
}

// sidecarOf wraps a sidecar body in its header and a valid trailing CRC.
func sidecarOf(body []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, colMagic)
	b = binary.BigEndian.AppendUint32(b, colVersion)
	b = append(b, body...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// hugeKeyCountBody is a headline-file body declaring no rows and 2^26
// keys, with nothing behind the count.
func hugeKeyCountBody() []byte {
	body := binary.BigEndian.AppendUint64(nil, 0)
	body = binary.BigEndian.AppendUint32(body, 0)
	return binary.BigEndian.AppendUint32(body, maxSidecarEntries)
}

// TestDecodeHeadlinesHugeKeyCount: a 28-byte headlines.col whose key
// count claims 2^26 keys must be refused before the count sizes a key
// table (which would take 1 GiB).
func TestDecodeHeadlinesHugeKeyCount(t *testing.T) {
	data := sidecarOf(hugeKeyCountBody())
	if len(data) != 28 {
		t.Fatalf("sidecar is %d bytes, want 28", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := decodeHeadlines(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "cannot fit") {
		t.Fatalf("decodeHeadlines error = %v, want a key count that cannot fit", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("refusing the key count allocated %d bytes", alloc)
	}
}

// sameRows compares headline rows, headline values by their bits (the
// fuzzer writes NaNs).
func sameRows(a, b map[int]HeadlineRow) bool {
	if len(a) != len(b) {
		return false
	}
	for t, ra := range a {
		rb, ok := b[t]
		if !ok || len(ra.Headline) != len(rb.Headline) {
			return false
		}
		ha, hb := ra.Headline, rb.Headline
		ra.Headline, rb.Headline = nil, nil
		if !reflect.DeepEqual(ra, rb) {
			return false
		}
		for k, v := range ha {
			w, ok := hb[k]
			if !ok || math.Float64bits(v) != math.Float64bits(w) {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeSidecars feeds arbitrary bodies to the headlines.col
// decoder behind a valid header and CRC, so the fuzzer reaches the body:
// no panic, and whatever decodes must re-encode and decode to the same
// rows, frame references included. A crasher lands in
// testdata/fuzz/FuzzDecodeSidecars and belongs in the commit.
func FuzzDecodeSidecars(f *testing.F) {
	rows := map[int]HeadlineRow{}
	refs := map[int]FrameRef{0: {Off: 0, Len: 300}, 1: {Off: 300, Len: 280}, 7: {Off: 580, Len: 9000}}
	for t, ref := range refs {
		rec := testRecord(t)
		rows[t] = rowFrom(rec, summarize(rec.Events), ref)
	}
	delete(rows[1].Headline, "captures")
	body := func(sidecar []byte) []byte { return sidecar[8 : len(sidecar)-4] }
	full := body(encodeHeadlines(9580, rows))
	f.Add(full)
	f.Add(body(encodeHeadlines(0, nil)))
	f.Add(hugeKeyCountBody())
	f.Add(body(encodeHeadlines(300, map[int]HeadlineRow{0: {ref: FrameRef{Len: 300}}})))
	f.Add(full[:len(full)/2])
	f.Fuzz(func(t *testing.T, body []byte) {
		size, rows, err := decodeHeadlines(sidecarOf(body))
		if err != nil {
			return
		}
		size2, rows2, err := decodeHeadlines(encodeHeadlines(size, rows))
		if err != nil || size2 != size || !sameRows(rows2, rows) {
			t.Fatalf("headline round trip: size %d -> %d, err %v, rows %v -> %v", size, size2, err, rows, rows2)
		}
	})
}

// TestOlderBuildSidecarsRebuild opens a campaign whose sidecars an older
// build wrote: testdata/legacy-sidecars holds trials 0 and 1 with an
// index.bin and a version-1 headlines.col. This build treats the old
// headlines.col as stale and rebuilds with exactly one scan, exactly as
// with no sidecar at all; the campaign then resumes byte-identically to
// one this build wrote, and after Close opens indexed.
func TestOlderBuildSidecarsRebuild(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{manifestName, logName, "index.bin", headlinesName} {
		b, err := os.ReadFile(filepath.Join("testdata", "legacy-sidecars", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	set := telemetry.NewSet()
	s, err := OpenOrCreate(dir, testManifest(), set)
	if err != nil {
		t.Fatal(err)
	}
	if n := counterValue(t, set, "runstore_index_rebuilds_total"); n != 1 {
		t.Errorf("index_rebuilds = %d, want 1", n)
	}
	if n := counterValue(t, set, "runstore_torn_tail_total"); n != 0 {
		t.Errorf("torn_tail = %d, want 0", n)
	}
	for i, rec := range storedRecords(t, s) {
		if rec.Trial != i || rec.Seed != 100+int64(i) {
			t.Errorf("record %d = trial %d seed %d", i, rec.Trial, rec.Seed)
		}
	}
	if _, err := s.AppendIndexed(testRecord(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := t.TempDir() + "/camp"
	w, err := Create(fresh, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.AppendIndexed(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []func(string) string{LogPath, HeadlinesPath} {
		got, err := os.ReadFile(path(dir))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path(fresh))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("resumed %s differs from a freshly written one", filepath.Base(path(dir)))
		}
	}

	set2 := telemetry.NewSet()
	r, err := Open(dir, set2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := counterValue(t, set2, "runstore_index_rebuilds_total"); n != 0 {
		t.Errorf("index_rebuilds after Close = %d, want 0", n)
	}
	if r.Len() != 3 {
		t.Errorf("reopened store holds %d records, want 3", r.Len())
	}
}
