// Package runstore is the durable campaign store: an append-only,
// crash-safe on-disk record of a multi-trial measurement campaign.
//
// The paper's headline temporal result — observers replaying shadowed
// identifiers hours to days after the decoy was sent — is longitudinal,
// so campaigns must outlive processes. A campaign is one directory:
//
//	<dir>/manifest.json   versioned manifest: config hash, seed range
//	<dir>/trials.log      length-prefixed, CRC32-checksummed records
//	<dir>/headlines.col   per-trial index: frame offset/length and
//	                      columnar headline stats (cache)
//
// The manifest is written via tmp-file + fsync + rename + dir-fsync
// (atomic on POSIX), so a crash never leaves a half-written manifest.
// Trial records are appended to the log and fsynced one at a time; a
// crash mid-append leaves at most one torn record at the tail, which
// the reader detects by checksum and (in writable mode) truncates away.
// A *failed* append (ENOSPC, short write) is rolled back the same way:
// the store tracks the durable end offset and truncates back to it
// before the next append, so torn bytes can never land mid-log where
// they would strand every later record (frames are not
// self-synchronizing). Records before the torn tail are never touched:
// the store loses at most the trial that was being written, never a
// completed one.
//
// headlines.col is a derived cache, rebuilt from the log whenever it is
// missing or stale (its recorded log size no longer matches the file)
// and republished atomically on Close, Compact and Merge. With a valid
// index, Open, resume existence checks and per-trial reads are O(1)
// seeks instead of whole-log scans, and the columnar headline stats
// serve cross-campaign diff and time-windowed retention without
// touching the event log at all — index once, O(1) lookups forever.
//
// One function reads the frame layout (walkFrames) and one rebuilds a
// log from salvaged frames (salvage, shared by Compact and Merge).
//
// The store assumes a single writing process per campaign directory (the
// batch runner); readers (cmd/shadowstore) open read-only and repair
// nothing.
package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"shadowmeter/internal/telemetry"
)

// StoreVersion is the on-disk layout version of a campaign directory,
// and the only one this build reads (ReadManifest refuses any other). A
// version from the past or the future is an error, never a silent
// reinterpretation.
const StoreVersion = 2

// hashSchemaVersion tracks the TrialRecord JSON schema, which is what a
// config fingerprint must be tied to — not the directory layout. Store
// v2 changed the layout (sidecar caches) but not the record encoding,
// so fingerprints, and with them resumability, survive the v1→v2 bump.
const hashSchemaVersion = 1

const (
	manifestName = "manifest.json"
	logName      = "trials.log"

	// recordMagic opens every record frame ("SHR1"). A scan that does not
	// find it at a record boundary treats everything from there on as a
	// torn tail.
	recordMagic = 0x53485231
	// headerSize is magic + payload length + payload CRC32, 4 bytes each.
	headerSize = 12

	// maxFramePayload bounds a frame's declared payload length. A
	// corrupt length field must not turn into a multi-GiB allocation —
	// or, where int is 32 bits, a negative slice bound and a panic. Real
	// records are kilobytes to low megabytes; 64 MiB is generous.
	maxFramePayload = 64 << 20
)

// errRecordTooLarge is returned by AppendIndexed for a record
// whose encoding exceeds the frame payload bound (64 MiB). Nothing is
// written.
var errRecordTooLarge = errors.New("runstore: record exceeds the 64 MiB frame bound")

// Manifest identifies a campaign. Every field participates in the
// compatibility check on resume: a campaign can only be continued by a
// run with the identical configuration fingerprint and seed plan.
type Manifest struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
	BaseSeed   int64  `json:"base_seed"`
	Trials     int    `json:"trials"`
	Scale      string `json:"scale"`

	// ShardIndex/ShardCount mark a shard store: one worker's slice
	// [ShardIndex·Trials/ShardCount, (ShardIndex+1)·Trials/ShardCount)
	// of the campaign plan, destined for `shadowstore merge`. Both zero
	// for an unsharded campaign. Shard geometry participates in the
	// resume compatibility check: resuming shard 0/2 as shard 0/4 would
	// silently run the wrong trial window.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`

	// MergedFrom counts the source stores this campaign was folded from
	// by Merge (zero for stores written directly). It is provenance, not
	// identity: the compatibility check normalizes it away, so a merged
	// campaign resumes and extends exactly like a directly-written one.
	MergedFrom int `json:"merged_from,omitempty"`
}

// ShardLabel renders the manifest's shard provenance for display:
// "shard i/N", "merged from N shards", or "" for a plain campaign.
func (m Manifest) ShardLabel() string {
	if m.ShardCount > 0 {
		return fmt.Sprintf("shard %d/%d", m.ShardIndex, m.ShardCount)
	}
	if m.MergedFrom > 0 {
		return fmt.Sprintf("merged from %d shards", m.MergedFrom)
	}
	return ""
}

// plans reports whether rec belongs to the campaign's trial plan: the
// manifest's config hash, a trial inside the plan, and the seed the plan
// gives that trial. It is the keep rule of both salvage passes, Compact
// and Merge: a record off the plan can never be resumed (the runner
// checks the seed), so keeping it would only block the trial's re-run.
func (m Manifest) plans(rec TrialRecord) bool {
	return rec.ConfigHash == m.ConfigHash && rec.Trial >= 0 && rec.Trial < m.Trials &&
		rec.Seed == m.BaseSeed+int64(rec.Trial)
}

// EventRecord is one unsolicited request in compact, replayable form —
// exactly the fields the retention analyses (analysis.MultiUseStats,
// analysis.DelayCDF) consume, nothing else.
type EventRecord struct {
	Label        string `json:"label"`
	SentProto    string `json:"sent_proto"`
	CaptureProto string `json:"capture_proto"`
	DstName      string `json:"dst_name"`
	DelayNS      int64  `json:"delay_ns"`
}

// TrialRecord is the persisted outcome of one trial world. Headline,
// Metrics and Spans round-trip losslessly through JSON, so a trial
// served from the store is indistinguishable in batch output from one
// that just ran.
type TrialRecord struct {
	Trial      int                `json:"trial"`
	Seed       int64              `json:"seed"`
	ConfigHash string             `json:"config_hash"`
	Headline   map[string]float64 `json:"headline"`
	// VStartNS/VEndNS bracket the trial's virtual time (Unix
	// nanoseconds): the campaign epoch and the simulator clock when the
	// trial finished. They feed the columnar headline file so
	// time-windowed analyses can place a trial without decoding it.
	VStartNS int64                 `json:"vstart_ns,omitempty"`
	VEndNS   int64                 `json:"vend_ns,omitempty"`
	Events   []EventRecord         `json:"events,omitempty"`
	Metrics  []telemetry.Metric    `json:"metrics,omitempty"`
	Spans    []telemetry.SpanStats `json:"spans,omitempty"`
}

// FrameRef locates one record's frame inside the trial log: Off is the
// frame start and Len the full frame length including the header.
type FrameRef struct {
	Off int64
	Len int64
}

// HeadlineRow is the columnar summary of one stored trial: everything
// the summary table, cross-campaign diff and retention *pruning* need,
// with the full record (events, metrics, spans) left in the log behind
// an O(1) seek. MinDelayNS/MaxDelayNS bracket the trial's unsolicited
// event delays (both zero when the trial has none). A row is also the
// store's index entry for its trial: ref locates the record's frame.
type HeadlineRow struct {
	Trial      int
	Seed       int64
	VStartNS   int64
	VEndNS     int64
	Events     int
	MinDelayNS int64
	MaxDelayNS int64
	Headline   map[string]float64

	ref FrameRef
}

// OverlapsDelayWindow reports whether any of the row's unsolicited
// events can have a replay delay inside [from, to] nanoseconds (to <= 0
// means unbounded above). Rows that cannot are pruned from windowed
// retention without reading their log frames.
func (r HeadlineRow) OverlapsDelayWindow(from, to int64) bool {
	if r.Events == 0 {
		return false
	}
	if r.MaxDelayNS < from {
		return false
	}
	if to > 0 && r.MinDelayNS > to {
		return false
	}
	return true
}

// rowFrom builds a record's row from its events' summary (see
// summarize), which a summary decode yields without the events.
func rowFrom(rec TrialRecord, events eventSummary, ref FrameRef) HeadlineRow {
	return HeadlineRow{
		Trial:      rec.Trial,
		Seed:       rec.Seed,
		VStartNS:   rec.VStartNS,
		VEndNS:     rec.VEndNS,
		Events:     events.n,
		MinDelayNS: events.min,
		MaxDelayNS: events.max,
		Headline:   rec.Headline,
		ref:        ref,
	}
}

// Stats is a snapshot of the store's telemetry counters.
type Stats struct {
	RecordsWritten      int64
	RecordsRead         int64
	BytesWritten        int64
	BytesRead           int64
	ResumeHits          int64
	TornTailTruncations int64
	IndexHits           int64
	IndexRebuilds       int64
	Compactions         int64
	CompactedBytes      int64
	ManifestExtensions  int64
}

// storeMetrics holds the registered counter handles. Updates happen
// under the store mutex, so the lock-free Counter variant is safe.
type storeMetrics struct {
	recordsWritten *telemetry.Counter
	recordsRead    *telemetry.Counter
	bytesWritten   *telemetry.Counter
	bytesRead      *telemetry.Counter
	resumeHits     *telemetry.Counter
	tornTails      *telemetry.Counter
	indexHits      *telemetry.Counter
	indexRebuilds  *telemetry.Counter
	compactions    *telemetry.Counter
	compactedBytes *telemetry.Counter
	extensions     *telemetry.Counter
}

func newStoreMetrics(reg *telemetry.Registry) storeMetrics {
	return storeMetrics{
		recordsWritten: reg.Counter("runstore_records_written_total", "trial records appended to the campaign log"),
		recordsRead:    reg.Counter("runstore_records_read_total", "trial records decoded from the campaign log"),
		bytesWritten:   reg.Counter("runstore_bytes_written_total", "bytes appended to the campaign log (frames incl. headers)"),
		bytesRead:      reg.Counter("runstore_bytes_read_total", "log and sidecar bytes read (whole-log scans plus indexed record reads)"),
		resumeHits:     reg.Counter("runstore_resume_hits_total", "trials served from the store instead of re-running"),
		tornTails:      reg.Counter("runstore_torn_tail_total", "torn tail records detected on open (truncated in writable mode)"),
		indexHits:      reg.Counter("runstore_index_hits_total", "opens and record lookups served by the offset index instead of a log scan"),
		indexRebuilds:  reg.Counter("runstore_index_rebuilds_total", "opens that rebuilt the index by scanning the log (sidecars missing or stale)"),
		compactions:    reg.Counter("runstore_compactions_total", "compaction passes over the campaign log"),
		compactedBytes: reg.Counter("runstore_compacted_bytes_total", "log bytes reclaimed by compaction (superseded records, torn and orphaned bytes)"),
		extensions:     reg.Counter("runstore_manifest_extensions_total", "campaign extensions: manifest upgrades to a larger trial plan"),
	}
}

// Store is one open campaign directory.
type Store struct {
	mu       sync.Mutex
	dir      string
	manifest Manifest
	log      *os.File // append handle; nil when read-only or closed
	rd       *os.File // lazy read handle for indexed record reads
	readonly bool
	closed   bool

	// end is the durable end of the log: the offset just past the last
	// fsynced, index-acknowledged record. dirty marks that a failed
	// append may have left torn bytes past end, to be truncated away
	// before anything else is written.
	end   int64
	dirty bool

	rows map[int]HeadlineRow
	// readBuf holds the frame of the last indexed read. Decoded records
	// never alias it, so every read reuses it; Close releases it.
	readBuf []byte
	// stale marks in-memory index state not yet published to the
	// sidecar (cleared by publishSidecarLocked).
	stale bool

	// writeHook, when non-nil, replaces the log write in AppendIndexed — a
	// test seam for injecting short and failed writes.
	writeHook func([]byte) (int, error)

	m storeMetrics
}

func newStore(dir string, man Manifest, set *telemetry.Set, readonly bool) *Store {
	if set == nil {
		set = telemetry.NewSet()
	}
	return &Store{
		dir:      dir,
		manifest: man,
		readonly: readonly,
		rows:     make(map[int]HeadlineRow),
		m:        newStoreMetrics(set.Registry),
	}
}

// ManifestPath returns the manifest location inside a campaign dir.
func ManifestPath(dir string) string { return filepath.Join(dir, manifestName) }

// LogPath returns the trial-log location inside a campaign dir.
func LogPath(dir string) string { return filepath.Join(dir, logName) }

// Create initializes a fresh campaign directory: manifest via tmp-file +
// rename, then an empty trial log, with the directory fsynced after each
// so neither entry can vanish in a crash. It fails if the directory
// already holds a campaign. A nil telemetry set gets a private one.
func Create(dir string, man Manifest, set *telemetry.Set) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: creating campaign dir: %w", err)
	}
	if _, err := os.Stat(ManifestPath(dir)); err == nil {
		return nil, fmt.Errorf("runstore: campaign already exists in %s (open it instead)", dir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if err := writeManifest(dir, man); err != nil {
		return nil, err
	}
	s := newStore(dir, man, set, false)
	f, err := os.OpenFile(LogPath(dir), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: creating trial log: %w", err)
	}
	// The manifest publish synced the directory, but the log creation
	// came after: without its own dir fsync a crash could leave a
	// manifest whose promised log was never made durable.
	if err := f.Sync(); err != nil {
		return nil, closeOnErr(f, fmt.Errorf("runstore: syncing new trial log: %w", err))
	}
	if err := syncDir(dir); err != nil {
		return nil, closeOnErr(f, fmt.Errorf("runstore: syncing campaign dir after log creation: %w", err))
	}
	s.log = f
	return s, nil
}

// Open opens an existing campaign for appending. A torn tail record —
// the residue of a crash mid-append — is detected by checksum, counted
// in runstore_torn_tail_total, and truncated away so the log ends on a
// record boundary again.
func Open(dir string, set *telemetry.Set) (*Store, error) {
	return open(dir, set, false)
}

// OpenReadOnly opens a campaign for inspection. Torn tails are counted
// but the log is left untouched, so inspecting a live campaign never
// races its writer's recovery.
func OpenReadOnly(dir string, set *telemetry.Set) (*Store, error) {
	return open(dir, set, true)
}

func open(dir string, set *telemetry.Set, readonly bool) (*Store, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	s := newStore(dir, man, set, readonly)

	var logSize int64
	if fi, err := os.Stat(LogPath(dir)); err == nil {
		logSize = fi.Size()
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("runstore: stat trial log: %w", err)
	}

	torn := false
	if s.loadSidecar(logSize) {
		// Sidecar current: the index tiles the log exactly, so there is
		// no torn tail and nothing to scan.
		s.end = logSize
		s.m.indexHits.Inc()
	} else {
		// Missing or stale sidecar: one full scan rebuilds the index —
		// the only whole-log read an intact campaign ever pays.
		data, err := os.ReadFile(LogPath(dir))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("runstore: reading trial log: %w", err)
		}
		s.end = walkFrames(data, false, summaryRead, func(rec TrialRecord, row HeadlineRow) {
			s.rows[rec.Trial] = row
			s.m.recordsRead.Inc()
		})
		s.m.bytesRead.Add(int64(len(data)))
		s.m.indexRebuilds.Inc()
		s.stale = true
		torn = int64(len(data)) > s.end
		if torn {
			s.m.tornTails.Inc()
		}
	}
	if readonly {
		return s, nil
	}
	f, err := os.OpenFile(LogPath(dir), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: opening trial log: %w", err)
	}
	if torn {
		// Drop the torn tail so the next append starts on a boundary.
		if err := f.Truncate(s.end); err != nil {
			return nil, closeOnErr(f, fmt.Errorf("runstore: truncating torn tail: %w", err))
		}
		if err := f.Sync(); err != nil {
			return nil, closeOnErr(f, fmt.Errorf("runstore: syncing truncated log: %w", err))
		}
	}
	s.log = f
	return s, nil
}

// OpenOrCreate opens the campaign in dir if one exists — verifying that
// its manifest matches man — and creates it otherwise. Merge provenance
// is normalized before the comparison, so a merged campaign is
// continued like a directly-written one. Two mismatches get special
// treatment: a different shard geometry is refused with its own
// actionable error, and a *larger* trial count over an otherwise
// identical manifest is a campaign extension — the stored plan is
// upgraded in place (see ExtendTrials) and the open succeeds.
func OpenOrCreate(dir string, man Manifest, set *telemetry.Set) (*Store, error) {
	if _, err := os.Stat(ManifestPath(dir)); errors.Is(err, fs.ErrNotExist) {
		return Create(dir, man, set)
	} else if err != nil {
		return nil, err
	}
	s, err := Open(dir, set)
	if err != nil {
		return nil, err
	}
	stored := s.manifest
	want := man
	want.MergedFrom = stored.MergedFrom
	if stored == want {
		return s, nil
	}
	if stored.ShardIndex != want.ShardIndex || stored.ShardCount != want.ShardCount {
		err := fmt.Errorf("runstore: campaign %s is %s of its trial plan, requested %s: resuming across shard geometries would run the wrong trial window — rerun with the original -shard value, or fold shards with `shadowstore merge` first",
			dir, geometryLabel(stored), geometryLabel(want))
		return nil, closeOnErr(s.log, err)
	}
	probe := stored
	probe.Trials = want.Trials
	if probe == want {
		// Only the trial count differs: growth is a campaign extension,
		// shrinking is refused (ExtendTrials says why).
		if err := s.ExtendTrials(want.Trials); err != nil {
			return nil, closeOnErr(s.log, err)
		}
		return s, nil
	}
	err = fmt.Errorf("runstore: campaign %s was created with a different configuration: stored %+v, requested %+v", dir, stored, man)
	return nil, closeOnErr(s.log, err)
}

// geometryLabel renders a manifest's shard geometry for error messages.
func geometryLabel(m Manifest) string {
	if m.ShardCount > 0 {
		return fmt.Sprintf("shard %d/%d", m.ShardIndex, m.ShardCount)
	}
	return "unsharded"
}

// ExtendTrials upgrades the campaign to a larger trial plan — campaign
// extension: same config hash, base seed, scale, and shard geometry,
// more trials. Only the manifest changes (republished atomically);
// stored records are untouched, so a resume after extension serves
// every old trial from the store and runs only the new window.
// Shrinking is refused: records past the smaller plan would become
// unreachable by resume while still shaping merge and analysis output.
func (s *Store) ExtendTrials(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readonly {
		return fmt.Errorf("runstore: campaign %s is open read-only", s.dir)
	}
	if s.closed {
		return fmt.Errorf("runstore: campaign %s is closed", s.dir)
	}
	if n < s.manifest.Trials {
		return fmt.Errorf("runstore: campaign %s holds a %d-trial plan; refusing to shrink it to %d — extension only grows a plan (start a fresh campaign for a smaller one)",
			s.dir, s.manifest.Trials, n)
	}
	if n == s.manifest.Trials {
		return nil
	}
	man := s.manifest
	man.Trials = n
	if err := writeManifest(s.dir, man); err != nil {
		return fmt.Errorf("runstore: extending campaign %s to %d trials: %w", s.dir, n, err)
	}
	s.manifest = man
	s.m.extensions.Inc()
	return nil
}

// closeOnErr closes f (when non-nil) while propagating the primary
// error; the close error, rarer and less actionable, is dropped in its
// favor only if the primary is non-nil — which it always is here.
func closeOnErr(f *os.File, primary error) error {
	if f == nil {
		return primary
	}
	if cerr := f.Close(); cerr != nil {
		return errors.Join(primary, cerr)
	}
	return primary
}

// AppendIndexed durably persists one trial record: a single frame write
// followed by fsync. The record must be on the campaign plan (its config
// hash, a trial inside the plan and that trial's seed; see
// Manifest.plans), and each trial index can be stored only once —
// duplicates mean the caller re-ran a trial that resume should have
// served. A refused record leaves the log untouched. It
// returns where the record's frame landed in the log — the
// observability plane announces the offset on its store_appended
// events. The returned ref is zero when err is non-nil.
func (s *Store) AppendIndexed(rec TrialRecord) (FrameRef, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readonly {
		return FrameRef{}, fmt.Errorf("runstore: campaign %s is open read-only", s.dir)
	}
	if s.log == nil {
		return FrameRef{}, fmt.Errorf("runstore: campaign %s is closed", s.dir)
	}
	if rec.ConfigHash != s.manifest.ConfigHash {
		return FrameRef{}, fmt.Errorf("runstore: record config hash %s does not match campaign %s", rec.ConfigHash, s.manifest.ConfigHash)
	}
	if !s.manifest.plans(rec) {
		return FrameRef{}, fmt.Errorf("runstore: trial %d seed %d is off the plan of campaign %s (%d trials from base seed %d)",
			rec.Trial, rec.Seed, s.dir, s.manifest.Trials, s.manifest.BaseSeed)
	}
	if _, dup := s.rows[rec.Trial]; dup {
		return FrameRef{}, fmt.Errorf("runstore: trial %d is already stored in %s", rec.Trial, s.dir)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return FrameRef{}, fmt.Errorf("runstore: encoding trial %d: %w", rec.Trial, err)
	}
	// Every reader refuses a frame over the bound as torn, so writing one
	// would lose the record (and, without the sidecar, the log behind it).
	if len(payload) > maxFramePayload {
		return FrameRef{}, fmt.Errorf("runstore: trial %d encodes to %d bytes: %w", rec.Trial, len(payload), errRecordTooLarge)
	}
	if err := s.rollbackLocked(); err != nil {
		return FrameRef{}, err
	}
	frame := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], recordMagic)
	binary.BigEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
	copy(frame[headerSize:], payload)
	write := s.log.Write
	if s.writeHook != nil {
		write = s.writeHook
	}
	if n, err := write(frame); err != nil || n != len(frame) {
		// The frame may be partly on disk. Mark the log dirty so the
		// next append truncates back to the durable end instead of
		// writing after torn bytes — which would strand every record
		// appended from here on behind an undecodable frame.
		s.dirty = true
		if err == nil {
			err = io.ErrShortWrite
		}
		return FrameRef{}, fmt.Errorf("runstore: appending trial %d (log rolls back to offset %d): %w", rec.Trial, s.end, err)
	}
	if err := s.log.Sync(); err != nil {
		// Durability unknown: treat the frame as not written.
		s.dirty = true
		return FrameRef{}, fmt.Errorf("runstore: syncing trial %d (log rolls back to offset %d): %w", rec.Trial, s.end, err)
	}
	ref := FrameRef{Off: s.end, Len: int64(len(frame))}
	s.rows[rec.Trial] = rowFrom(rec, summarize(rec.Events), ref)
	s.end += ref.Len
	s.stale = true
	s.m.recordsWritten.Inc()
	s.m.bytesWritten.Add(ref.Len)
	return ref, nil
}

// rollbackLocked truncates the log back to the durable end after a
// failed append left (or may have left) torn bytes past it.
func (s *Store) rollbackLocked() error {
	if !s.dirty {
		return nil
	}
	if err := s.log.Truncate(s.end); err != nil {
		return fmt.Errorf("runstore: rolling back failed append (truncate to %d): %w", s.end, err)
	}
	if err := s.log.Sync(); err != nil {
		return fmt.Errorf("runstore: syncing rollback to %d: %w", s.end, err)
	}
	s.dirty = false
	return nil
}

// Get returns the stored record for a trial index, read from the log
// with one O(record) seek through the offset index. A non-nil error
// means the index points at a frame that no longer decodes — store
// corruption, not absence.
func (s *Store) Get(trial int) (TrialRecord, bool, error) {
	return s.get(trial, fullRead)
}

// GetWithoutEvents is Get for readers that need no events, such as
// resume: it checks the stored events as Get does but returns the record
// with Events nil, so a record's memory stays out of the read however
// many events it holds.
func (s *Store) GetWithoutEvents(trial int) (TrialRecord, bool, error) {
	return s.get(trial, summaryRead)
}

func (s *Store) get(trial int, mode readMode) (TrialRecord, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row, ok := s.rows[trial]
	if !ok {
		return TrialRecord{}, false, nil
	}
	rec, err := s.readFrameLocked(row.ref, mode)
	if err != nil {
		return TrialRecord{}, true, fmt.Errorf("runstore: reading trial %d: %w", trial, err)
	}
	return rec, true, nil
}

// readFrameLocked reads and decodes one frame via the lazy read handle
// into the store's reused read buffer.
func (s *Store) readFrameLocked(ref FrameRef, mode readMode) (TrialRecord, error) {
	if s.closed {
		return TrialRecord{}, fmt.Errorf("campaign %s is closed", s.dir)
	}
	if s.rd == nil {
		f, err := os.Open(LogPath(s.dir))
		if err != nil {
			return TrialRecord{}, err
		}
		s.rd = f
	}
	if int64(cap(s.readBuf)) < ref.Len {
		s.readBuf = make([]byte, ref.Len)
	}
	buf := s.readBuf[:ref.Len]
	if _, err := s.rd.ReadAt(buf, ref.Off); err != nil {
		return TrialRecord{}, err
	}
	s.m.bytesRead.Add(ref.Len)
	s.m.indexHits.Inc()
	var rec TrialRecord
	n := 0
	valid := walkFrames(buf, false, mode, func(r TrialRecord, _ HeadlineRow) { rec, n = r, n+1 })
	if n != 1 || valid != ref.Len {
		return TrialRecord{}, fmt.Errorf("frame at %d+%d does not decode (log corrupted since indexing?)", ref.Off, ref.Len)
	}
	s.m.recordsRead.Inc()
	return rec, nil
}

// Len reports the number of stored trials.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rows)
}

// Headlines returns the columnar summary of every stored trial sorted
// by trial index, served entirely from the in-memory index — no log
// reads. The headline maps are copies; callers may keep them.
func (s *Store) Headlines() []HeadlineRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]HeadlineRow, 0, len(s.rows))
	for _, row := range s.rows {
		h := make(map[string]float64, len(row.Headline))
		for k, v := range row.Headline {
			h[k] = v
		}
		row.Headline = h
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trial < out[j].Trial })
	return out
}

// Manifest returns the campaign manifest.
func (s *Store) Manifest() Manifest { return s.manifest }

// Dir returns the campaign directory.
func (s *Store) Dir() string { return s.dir }

// NoteResumeHit counts one trial served from the store instead of
// re-running. The runner calls this from worker goroutines, so the
// increment takes the store lock.
func (s *Store) NoteResumeHit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.resumeHits.Inc()
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		RecordsWritten:      s.m.recordsWritten.Value(),
		RecordsRead:         s.m.recordsRead.Value(),
		BytesWritten:        s.m.bytesWritten.Value(),
		BytesRead:           s.m.bytesRead.Value(),
		ResumeHits:          s.m.resumeHits.Value(),
		TornTailTruncations: s.m.tornTails.Value(),
		IndexHits:           s.m.indexHits.Value(),
		IndexRebuilds:       s.m.indexRebuilds.Value(),
		Compactions:         s.m.compactions.Value(),
		CompactedBytes:      s.m.compactedBytes.Value(),
		ManifestExtensions:  s.m.extensions.Value(),
	}
}

// Close publishes the sidecar index (writable stores with
// unpublished appends) and releases the file handles. Safe to call on
// read-only and already-closed stores.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	if s.log != nil {
		// A failed final append may have left torn bytes; drop them so
		// the on-disk log ends on the durable boundary the sidecar
		// describes.
		if err := s.rollbackLocked(); err != nil {
			errs = append(errs, err)
		} else if s.stale {
			if err := s.publishSidecarLocked(); err != nil {
				errs = append(errs, err)
			}
		}
		if err := s.log.Close(); err != nil {
			errs = append(errs, err)
		}
		s.log = nil
	}
	if s.rd != nil {
		if err := s.rd.Close(); err != nil {
			errs = append(errs, err)
		}
		s.rd = nil
	}
	s.readBuf = nil
	s.closed = true
	return errors.Join(errs...)
}

// walkFrames calls fn for each record frame in data, in file order,
// with the record decoded in mode and its row (whose ref is the frame's
// place in data), and returns how many bytes those frames cover. It is
// the one reader of the frame layout. Without resync it stops at the
// first torn or corrupt frame: frames are not self-synchronizing, so to
// a plain reader everything after it is unreachable — which is why
// AppendIndexed rolls back failed writes instead of ever letting torn
// bytes land mid-log. With resync it skips to the next frame magic
// instead, the salvage mode that recovers records stranded behind a bad
// frame in logs that predate that guarantee.
func walkFrames(data []byte, resync bool, mode readMode, fn func(TrialRecord, HeadlineRow)) (covered int64) {
	off := 0
	for off < len(data) {
		rec, events, n, ok := decodeFrame(data[off:], mode)
		if ok {
			fn(rec, rowFrom(rec, events, FrameRef{Off: int64(off), Len: int64(n)}))
			covered += int64(n)
			off += n
			continue
		}
		next := -1
		if resync {
			next = bytes.Index(data[off+1:], recordMagicBytes)
		}
		if next < 0 {
			break
		}
		off += 1 + next
	}
	return covered
}

// decodeFrame decodes the frame at the start of data in mode, returning
// the record, its events' summary and the frame's total length. ok is
// false when data does not begin with a complete, well-formed frame — a
// corrupt length field (negative on 32-bit ints, or absurdly large) is
// rejected by bound before it can size an allocation or a slice
// expression. The payload
// goes through decodeRecord, the one record decoder (decode.go).
func decodeFrame(data []byte, mode readMode) (rec TrialRecord, events eventSummary, frameLen int, ok bool) {
	if len(data) < headerSize {
		return rec, events, 0, false
	}
	if binary.BigEndian.Uint32(data) != recordMagic {
		return rec, events, 0, false
	}
	n32 := binary.BigEndian.Uint32(data[4:])
	if n32 > maxFramePayload {
		return rec, events, 0, false
	}
	n := int(n32)
	sum := binary.BigEndian.Uint32(data[8:])
	if len(data)-headerSize < n {
		return rec, events, 0, false
	}
	payload := data[headerSize : headerSize+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, events, 0, false
	}
	rec, events, err := decodeRecord(payload, mode)
	if err != nil {
		return rec, events, 0, false
	}
	return rec, events, headerSize + n, true
}

var recordMagicBytes = binary.BigEndian.AppendUint32(nil, recordMagic)

// DecodeRecords decodes every valid record frame at the start of data,
// returning them in file order plus the number of valid bytes consumed.
// Everything from the first torn or corrupt frame on is ignored, which
// makes it safe on a snapshot of a live log: a half-appended tail frame
// simply does not decode yet, and will on a later read. This is the
// read-only follower's primitive (shadowstore tail) — it never opens a
// Store and so can never trigger writable-mode tail repair.
func DecodeRecords(data []byte) (recs []TrialRecord, valid int64) {
	valid = walkFrames(data, false, fullRead, func(rec TrialRecord, _ HeadlineRow) { recs = append(recs, rec) })
	return recs, valid
}

// LogOffsets returns the byte offset of every valid record in a
// campaign's trial log, in file order — a diagnostic for tests and
// tooling (truncating the file at LogOffsets(dir)[k] keeps exactly the
// first k records).
func LogOffsets(dir string) ([]int64, error) {
	data, err := os.ReadFile(LogPath(dir))
	if err != nil {
		return nil, err
	}
	var offs []int64
	walkFrames(data, false, summaryRead, func(_ TrialRecord, row HeadlineRow) { offs = append(offs, row.ref.Off) })
	return offs, nil
}

func writeManifest(dir string, man Manifest) error {
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: encoding manifest: %w", err)
	}
	b = append(b, '\n')
	return publishFile(dir, manifestName, b)
}

// publishFile atomically replaces <dir>/<name> with payload: tmp-file
// write, fsync, rename, dir-fsync — the crash-safe publish every
// non-log artifact in the campaign directory (manifest, sidecar index,
// compacted or merged log) goes through.
func publishFile(dir, name string, payload []byte) error {
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: creating %s tmp: %w", name, err)
	}
	if _, err := f.Write(payload); err != nil {
		return closeOnErr(f, fmt.Errorf("runstore: writing %s: %w", name, err))
	}
	if err := f.Sync(); err != nil {
		return closeOnErr(f, fmt.Errorf("runstore: syncing %s: %w", name, err))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("runstore: closing %s tmp: %w", name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("runstore: publishing %s: %w", name, err)
	}
	return syncDir(dir)
}

// ReadManifest reads a campaign's manifest without opening its store —
// for tooling that wants the identity and trial plan of a possibly
// still-running campaign with zero interaction with its log. Every open
// and merge reads the manifest here, so a campaign whose layout version
// is not StoreVersion is refused before any of its files are touched.
func ReadManifest(dir string) (Manifest, error) {
	b, err := os.ReadFile(ManifestPath(dir))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Manifest{}, fmt.Errorf("runstore: %s holds no campaign (missing %s)", dir, manifestName)
		}
		return Manifest{}, err
	}
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return Manifest{}, fmt.Errorf("runstore: corrupt manifest in %s: %w", dir, err)
	}
	if man.Version != StoreVersion {
		return Manifest{}, fmt.Errorf("runstore: campaign %s has store version %d, but this build reads only version %d: read it with the build that wrote it, or re-run the campaign into a fresh directory with this one",
			dir, man.Version, StoreVersion)
	}
	return man, nil
}

// syncDir flushes directory metadata so a rename (manifest publish) or
// file creation survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// HashJSON fingerprints any JSON-marshalable configuration value:
// sha256 over a version-salted canonical encoding, rendered as hex.
// Struct field order is fixed at compile time and map keys are sorted by
// encoding/json, so equal values always hash equally.
func HashJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("runstore: hashing config: %w", err)
	}
	// The salt ties hashes to the record schema: bumping
	// hashSchemaVersion invalidates stored fingerprints even for
	// identical configs.
	salted := append([]byte(fmt.Sprintf("runstore/v%d\n", hashSchemaVersion)), b...)
	sum := sha256.Sum256(salted)
	return hex.EncodeToString(sum[:]), nil
}
