package runstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"shadowmeter/internal/telemetry"
)

func testManifest() Manifest {
	return Manifest{Version: StoreVersion, ConfigHash: "cfg-abc", BaseSeed: 100, Trials: 4, Scale: "small"}
}

func testRecord(trial int) TrialRecord {
	return TrialRecord{
		Trial:      trial,
		Seed:       100 + int64(trial),
		ConfigHash: "cfg-abc",
		Headline:   map[string]float64{"captures": float64(10 * trial), "sent_decoys": 42.5},
		Events: []EventRecord{
			{Label: "lbl", SentProto: "DNS", CaptureProto: "HTTP", DstName: "Yandex", DelayNS: int64(trial) * 1e9},
		},
		Metrics: []telemetry.Metric{{Name: "netsim_packets_sent_total", Kind: telemetry.KindCounter, Value: int64(trial)}},
		Spans:   []telemetry.SpanStats{{Name: "phase1", Count: 1, Events: 7}},
	}
}

// storedRecords reads every stored record in trial order the way the
// campaign tooling does: the columnar headlines name the trials, and
// each one is one indexed Get.
func storedRecords(t *testing.T, s *Store) []TrialRecord {
	t.Helper()
	var recs []TrialRecord
	for _, row := range s.Headlines() {
		rec, ok, err := s.Get(row.Trial)
		if err != nil || !ok {
			t.Fatalf("Get(%d) = ok %v, err %v", row.Trial, ok, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// counterValue digs a scalar counter out of a telemetry set.
func counterValue(t *testing.T, set *telemetry.Set, name string) int64 {
	t.Helper()
	for _, m := range set.Registry.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not registered", name)
	return 0
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.AppendIndexed(testRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	set := telemetry.NewSet()
	r, err := Open(dir, set)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Manifest() != testManifest() {
		t.Errorf("manifest = %+v, want %+v", r.Manifest(), testManifest())
	}
	recs := storedRecords(t, r)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Trial != i || rec.Seed != 100+int64(i) {
			t.Errorf("record %d: trial=%d seed=%d", i, rec.Trial, rec.Seed)
		}
		if rec.Headline["captures"] != float64(10*i) || rec.Headline["sent_decoys"] != 42.5 {
			t.Errorf("record %d headline = %v", i, rec.Headline)
		}
		if len(rec.Events) != 1 || rec.Events[0].DstName != "Yandex" || rec.Events[0].DelayNS != int64(i)*1e9 {
			t.Errorf("record %d events = %+v", i, rec.Events)
		}
		if len(rec.Metrics) != 1 || rec.Metrics[0].Value != int64(i) {
			t.Errorf("record %d metrics = %+v", i, rec.Metrics)
		}
		if len(rec.Spans) != 1 || rec.Spans[0].Events != 7 {
			t.Errorf("record %d spans = %+v", i, rec.Spans)
		}
	}
	if got, ok, err := r.Get(1); err != nil || !ok || got.Seed != 101 {
		t.Errorf("Get(1) = %+v, %v, %v", got, ok, err)
	}
	if _, ok, err := r.Get(3); ok || err != nil {
		t.Errorf("Get(3) = ok %v, err %v for an unstored trial", ok, err)
	}
	// The reopen was served by the sidecar index (no open-time decode);
	// storedRecords read 3 frames and Get(1) one more.
	if n := counterValue(t, set, "runstore_records_read_total"); n != 4 {
		t.Errorf("records_read = %d, want 4", n)
	}
	if n := counterValue(t, set, "runstore_index_rebuilds_total"); n != 0 {
		t.Errorf("index_rebuilds = %d, want 0 (the sidecar was published on Close)", n)
	}
	if n := counterValue(t, set, "runstore_index_hits_total"); n == 0 {
		t.Error("index_hits = 0, want indexed open + lookups")
	}
	if n := counterValue(t, set, "runstore_torn_tail_total"); n != 0 {
		t.Errorf("torn_tail = %d, want 0", n)
	}
}

// TestTornTailRecovery is the crash model: a record torn mid-write must
// be detected, counted, and truncated away, leaving every completed
// record intact and the log appendable.
func TestTornTailRecovery(t *testing.T) {
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

	// Tear the last record: chop 5 bytes off the tail, as a crash between
	// write and sync would.
	logp := LogPath(dir)
	fi, err := os.Stat(logp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logp, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	set := telemetry.NewSet()
	r, err := Open(dir, set)
	if err != nil {
		t.Fatalf("open after tear: %v", err)
	}
	if r.Len() != 2 {
		t.Fatalf("got %d records after tear, want 2", r.Len())
	}
	if n := counterValue(t, set, "runstore_torn_tail_total"); n != 1 {
		t.Errorf("runstore_torn_tail_total = %d, want 1", n)
	}

	// The truncated log must accept the replacement record and read back
	// clean: recovery is complete, not just tolerated.
	if _, err := r.AppendIndexed(testRecord(2)); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rr, err := Open(dir, telemetry.NewSet())
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if rr.Len() != 3 {
		t.Errorf("got %d records after recovery append, want 3", rr.Len())
	}
	if n := counterValue(t, set, "runstore_torn_tail_total"); n != 1 {
		t.Errorf("torn counter moved after recovery: %d", n)
	}
}

// TestReadOnlyLeavesTornTail: inspection must never repair a live
// campaign under its writer.
func TestReadOnlyLeavesTornTail(t *testing.T) {
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
	logp := LogPath(dir)
	fi, err := os.Stat(logp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logp, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	set := telemetry.NewSet()
	r, err := OpenReadOnly(dir, set)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Errorf("read-only open sees %d records, want 1", r.Len())
	}
	if n := counterValue(t, set, "runstore_torn_tail_total"); n != 1 {
		t.Errorf("torn counter = %d, want 1", n)
	}
	if _, err := r.AppendIndexed(testRecord(2)); err == nil {
		t.Error("Append on read-only store did not fail")
	}
	after, err := os.Stat(logp)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != fi.Size()-3 {
		t.Errorf("read-only open changed the log size: %d -> %d", fi.Size()-3, after.Size())
	}
}

func TestAppendValidation(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AppendIndexed(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIndexed(testRecord(0)); err == nil {
		t.Error("duplicate trial append did not fail")
	}
	bad := testRecord(1)
	bad.ConfigHash = "other"
	if _, err := s.AppendIndexed(bad); err == nil {
		t.Error("config-hash mismatch append did not fail")
	}
}

// TestAppendRefusesOffPlanRecords: a record off the campaign plan (a
// negative trial, a trial past the plan, or a seed the plan does not give
// its trial) can never be resumed, and Compact and Merge drop it, so
// AppendIndexed must refuse it before it touches the log.
func TestAppendRefusesOffPlanRecords(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIndexed(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	reseeded := testRecord(1)
	reseeded.Seed = 99
	for _, c := range []struct {
		name string
		rec  TrialRecord
	}{
		{"negative trial", testRecord(-1)},
		{"trial past the plan", testRecord(testManifest().Trials)},
		{"seed off the plan", reseeded},
	} {
		if ref, err := s.AppendIndexed(c.rec); err == nil {
			t.Errorf("%s: trial %d seed %d appended at %+v", c.name, c.rec.Trial, c.rec.Seed, ref)
		}
	}
	after, err := os.ReadFile(LogPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused appends changed trials.log: %d -> %d bytes", len(before), len(after))
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d records after the refused appends, want 1", s.Len())
	}
	if _, err := s.AppendIndexed(testRecord(1)); err != nil {
		t.Fatalf("trial 1 on its planned seed after the refusals: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(HeadlinesPath(dir)); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReadOnly(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := storedRecords(t, r); len(got) != 2 || got[1].Seed != 101 {
		t.Errorf("rescanned store holds %+v, want trials 0 and 1 on plan", got)
	}
}

// TestGetWithoutEvents: the resume read returns the record Get returns
// with Events nil, and for a record of a small trial's size (events are
// nearly all of it) allocates at most a third of what Get allocates.
func TestGetWithoutEvents(t *testing.T) {
	rec := syntheticRecord(18000)
	man := Manifest{Version: StoreVersion, ConfigHash: rec.ConfigHash,
		BaseSeed: rec.Seed - int64(rec.Trial), Trials: rec.Trial + 1, Scale: "small"}
	s, err := Create(t.TempDir()+"/camp", man, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AppendIndexed(rec); err != nil {
		t.Fatal(err)
	}
	full, ok, err := s.Get(rec.Trial)
	if err != nil || !ok {
		t.Fatalf("Get = ok %v, err %v", ok, err)
	}
	brief, ok, err := s.GetWithoutEvents(rec.Trial)
	if err != nil || !ok {
		t.Fatalf("GetWithoutEvents = ok %v, err %v", ok, err)
	}
	if !reflect.DeepEqual(full, rec) {
		t.Fatal("Get does not return the appended record")
	}
	full.Events = nil
	if !reflect.DeepEqual(brief, full) {
		t.Fatalf("GetWithoutEvents differs from Get without events:\n got %+v\nwant %+v", brief, full)
	}
	if _, ok, err := s.GetWithoutEvents(rec.Trial + 1); ok || err != nil {
		t.Errorf("GetWithoutEvents of an absent trial = ok %v, err %v", ok, err)
	}
	allocated := func(read func(int) (TrialRecord, bool, error)) uint64 {
		const reads = 4
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < reads; i++ {
			if _, ok, err := read(rec.Trial); !ok || err != nil {
				t.Fatalf("read = ok %v, err %v", ok, err)
			}
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / reads
	}
	get, resume := allocated(s.Get), allocated(s.GetWithoutEvents)
	t.Logf("bytes allocated per read: Get %d, GetWithoutEvents %d", get, resume)
	if resume*3 > get {
		t.Errorf("GetWithoutEvents allocates %d bytes per read, over a third of Get's %d", resume, get)
	}
}

func TestOpenOrCreate(t *testing.T) {
	dir := t.TempDir() + "/camp"
	man := testManifest()
	s, err := OpenOrCreate(dir, man, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIndexed(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Same manifest: opens and sees the record.
	again, err := OpenOrCreate(dir, man, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Len() != 1 {
		t.Errorf("reopened campaign has %d records, want 1", again.Len())
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}

	// Any manifest drift must refuse: a campaign is one configuration.
	drift := man
	drift.ConfigHash = "cfg-xyz"
	if _, err := OpenOrCreate(dir, drift, nil); err == nil {
		t.Error("config-hash drift did not fail")
	}
	// A larger trial plan over the same config is a campaign extension:
	// the stored manifest upgrades in place instead of refusing.
	grown := man
	grown.Trials = 8
	ext, err := OpenOrCreate(dir, grown, nil)
	if err != nil {
		t.Fatalf("campaign extension refused: %v", err)
	}
	if got := ext.Manifest().Trials; got != 8 {
		t.Errorf("extended manifest trials = %d, want 8", got)
	}
	if ext.Stats().ManifestExtensions != 1 {
		t.Errorf("extensions counter = %d, want 1", ext.Stats().ManifestExtensions)
	}
	if err := ext.Close(); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadManifest(dir); err != nil || m.Trials != 8 {
		t.Errorf("persisted manifest = %+v (%v), want trials 8", m, err)
	}

	// Shrinking the plan must refuse: the original 4-trial manifest no
	// longer matches the extended campaign.
	if _, err := OpenOrCreate(dir, man, nil); err == nil {
		t.Error("trial-plan shrink did not fail")
	}

	// Shard geometry is identity, not provenance: a shard-flavored
	// manifest over an unsharded campaign must refuse with the
	// geometry-specific message.
	sharded := grown
	sharded.ShardIndex, sharded.ShardCount = 0, 2
	if _, err := OpenOrCreate(dir, sharded, nil); err == nil {
		t.Error("shard-geometry drift did not fail")
	} else if !strings.Contains(err.Error(), "shard 0/2") || !strings.Contains(err.Error(), "unsharded") {
		t.Errorf("shard-geometry error not actionable: %v", err)
	}

	// Create on an existing campaign must refuse too.
	if _, err := Create(dir, man, nil); err == nil {
		t.Error("Create over existing campaign did not fail")
	}
}

// TestVersionMismatch: this build reads exactly one store version. A
// campaign from the past (version 1) or the future is refused by every
// entry point, each time naming the version, and nothing in it or in a
// merge destination is written.
func TestVersionMismatch(t *testing.T) {
	for _, v := range []int{1, StoreVersion + 1} {
		base := t.TempDir()
		dir := filepath.Join(base, "camp")
		makeShard(t, dir, testManifest(), 0, 1)
		man := testManifest()
		man.Version = v
		if err := writeManifest(dir, man); err != nil {
			t.Fatal(err)
		}
		logBefore, err := os.ReadFile(LogPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("store version %d", v)
		for name, try := range map[string]func() error{
			"Open":         func() error { _, err := Open(dir, nil); return err },
			"OpenReadOnly": func() error { _, err := OpenReadOnly(dir, nil); return err },
			"OpenOrCreate": func() error { _, err := OpenOrCreate(dir, testManifest(), nil); return err },
		} {
			if err := try(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: %s = %v, want an error naming %q", v, name, err, want)
			}
		}
		if logAfter, err := os.ReadFile(LogPath(dir)); err != nil || !bytes.Equal(logBefore, logAfter) {
			t.Errorf("version %d: refused opens changed the trial log (err %v)", v, err)
		}
	}
}

// TestVersionSupported checks that ReadManifest accepts exactly
// StoreVersion and names any other version in its refusal.
func TestVersionSupported(t *testing.T) {
	dir := t.TempDir() + "/camp"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, StoreVersion, StoreVersion + 1} {
		man := testManifest()
		man.Version = v
		if err := writeManifest(dir, man); err != nil {
			t.Fatal(err)
		}
		got, err := ReadManifest(dir)
		if v == StoreVersion {
			if err != nil || got.Version != StoreVersion {
				t.Errorf("version %d: ReadManifest = %+v, %v; want it accepted", v, got, err)
			}
			continue
		}
		want := fmt.Sprintf("store version %d", v)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: ReadManifest = %v, want an error naming %q", v, err, want)
		}
	}
}

func TestLogOffsets(t *testing.T) {
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
	offs, err := LogOffsets(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 3 || offs[0] != 0 {
		t.Fatalf("offsets = %v", offs)
	}

	// Truncating at offs[k] keeps exactly the first k records.
	if err := os.Truncate(LogPath(dir), offs[2]); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Errorf("after truncate at offs[2]: %d records, want 2", r.Len())
	}
}

func TestHashJSON(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	h1, err := HashJSON(cfg{1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := HashJSON(cfg{1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	h3, err := HashJSON(cfg{2, "x"})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Error("equal configs hash unequal")
	}
	if h1 == h3 {
		t.Error("distinct configs hash equal")
	}
	if len(h1) != 64 {
		t.Errorf("hash length %d, want 64 hex chars", len(h1))
	}
}

// TestAppendRefusesOversizedRecord appends a record whose encoding passes
// the 64 MiB frame bound. Readers treat such a frame as torn, so the append
// must fail and leave the log, the index and the sidecar as they
// were; the store must then take a normal record, and a reopen without
// sidecar (as after a crash before Close) must find no torn tail.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	dir := t.TempDir() + "/camp"
	s, err := Create(dir, testManifest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendIndexed(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	logp := LogPath(dir)
	before, err := os.ReadFile(logp)
	if err != nil {
		t.Fatal(err)
	}
	huge := testRecord(1)
	huge.Events[0].Label = strings.Repeat("x", maxFramePayload)
	ref, err := s.AppendIndexed(huge)
	huge = TrialRecord{}
	if err == nil {
		t.Fatalf("a record over the frame bound was appended at %+v", ref)
	}
	if !errors.Is(err, errRecordTooLarge) {
		t.Errorf("err = %v, want errRecordTooLarge", err)
	}
	after, err := os.ReadFile(logp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("the refused append changed trials.log: %d -> %d bytes", len(before), len(after))
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d records after the refused append, want 1", s.Len())
	}
	if _, ok, _ := s.Get(1); ok {
		t.Fatal("the refused trial is in the frame map")
	}
	if _, err := s.AppendIndexed(testRecord(1)); err != nil {
		t.Fatalf("append after the refusal: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(HeadlinesPath(dir)); err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	r, err := Open(dir, set)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := storedRecords(t, r); len(got) != 2 || got[1].Trial != 1 {
		t.Errorf("reopened store holds %d records, want trials 0 and 1", len(got))
	}
	if n := counterValue(t, set, "runstore_torn_tail_total"); n != 0 {
		t.Errorf("runstore_torn_tail_total = %d after reopen, want 0", n)
	}
}
