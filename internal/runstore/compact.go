// Compaction: rewrite trials.log keeping the newest valid record per
// trial, dropping superseded frames, torn bytes, and records off the
// campaign plan, then publish the result atomically and republish the
// sidecar index.
//
// The normal append path can no longer create mid-log garbage (failed
// appends roll back to the durable end), but compaction still has to
// assume the worst — logs written by older builds, logs concatenated by
// hand, disks that lied — so salvage resynchronizes on the frame magic
// after a bad frame instead of giving up, recovering every record the
// plain reader would strand. Merge rebuilds its log with the same
// salvage pass.
package runstore

import (
	"fmt"
	"os"
)

// CompactStats reports what one compaction pass did.
type CompactStats struct {
	// Kept is the number of records in the compacted log.
	Kept int
	// DroppedFrames counts decodable frames that were not kept:
	// superseded duplicates of a trial and records off the campaign
	// plan (a foreign config hash, a trial outside the plan, or a seed
	// the plan does not give that trial).
	DroppedFrames int
	// BytesBefore/BytesAfter are the log sizes around the pass;
	// Reclaimed is their difference (superseded frames plus torn or
	// otherwise undecodable bytes).
	BytesBefore int64
	BytesAfter  int64
	Reclaimed   int64
}

// Compact rewrites the campaign log keeping only the newest valid
// record per trial of the campaign plan, in trial order. Frame bytes
// are copied verbatim — records are never re-encoded — and the new log
// is published exactly like the manifest: tmp-file + fsync + rename +
// dir-fsync, so a crash at any point leaves either the old log or the
// new one, never a mix. The sidecar is republished afterwards, so every
// read on the compacted store is an indexed seek. Requires a writable
// store.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st CompactStats
	if s.readonly {
		return st, fmt.Errorf("runstore: campaign %s is open read-only", s.dir)
	}
	if s.log == nil {
		return st, fmt.Errorf("runstore: campaign %s is closed", s.dir)
	}
	// Torn bytes from a failed append would read as "reclaimable" noise;
	// drop them first so the scan sees the log the index describes.
	if err := s.rollbackLocked(); err != nil {
		return st, err
	}

	data, err := os.ReadFile(LogPath(s.dir))
	if err != nil {
		return st, fmt.Errorf("runstore: reading log for compaction: %w", err)
	}
	s.m.bytesRead.Add(int64(len(data)))
	st.BytesBefore = int64(len(data))

	out, rows, sv := salvage([][]byte{data}, s.manifest)
	st.DroppedFrames = sv.superseded + sv.dropped
	st.Kept = len(rows)
	st.BytesAfter = int64(len(out))
	st.Reclaimed = st.BytesBefore - st.BytesAfter

	if err := publishFile(s.dir, logName, out); err != nil {
		return st, err
	}
	// The open handles still point at the replaced inode; swap them for
	// the published log before anything else reads or appends.
	nf, err := os.OpenFile(LogPath(s.dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The store can no longer append safely; close it rather than
		// leave handles on the dead inode.
		s.closeHandlesLocked()
		return st, fmt.Errorf("runstore: reopening compacted log: %w", err)
	}
	if err := s.log.Close(); err != nil {
		s.log = nf
		return st, fmt.Errorf("runstore: closing pre-compaction log handle: %w", err)
	}
	s.log = nf
	if s.rd != nil {
		if err := s.rd.Close(); err != nil {
			s.rd = nil
			return st, fmt.Errorf("runstore: closing pre-compaction read handle: %w", err)
		}
		s.rd = nil
	}

	s.rows = rows
	s.end = st.BytesAfter
	s.m.compactions.Inc()
	s.m.compactedBytes.Add(st.Reclaimed)
	if err := s.publishSidecarLocked(); err != nil {
		return st, err
	}
	return st, nil
}

// closeHandlesLocked drops both file handles, marking the store closed.
// Used on unrecoverable errors mid-compaction; close errors are
// secondary to the one the caller is already returning.
func (s *Store) closeHandlesLocked() {
	if s.log != nil {
		_ = s.log.Close() //shadowlint:ignore droppederr caller is returning the primary error
		s.log = nil
	}
	if s.rd != nil {
		_ = s.rd.Close() //shadowlint:ignore droppederr caller is returning the primary error
		s.rd = nil
	}
	s.closed = true
}

// salvageCounts reports what one salvage pass found.
type salvageCounts struct {
	decoded    int   // frames that decoded
	superseded int   // kept frames replaced by a newer frame for the trial
	dropped    int   // decoded frames off the plan
	torn       int64 // bytes outside every decodable frame
}

// salvage rebuilds one clean log from logs: every log is walked in
// resync mode, and each trial keeps its newest frame on the plan
// (Manifest.plans) — a later offset supersedes an earlier one (appends
// only go forward), then a later log an earlier one (callers list logs
// oldest first). Frames come out in trial order with their bytes copied
// unchanged, and rows index them in the new log.
func salvage(logs [][]byte, plan Manifest) (out []byte, rows map[int]HeadlineRow, c salvageCounts) {
	type found struct {
		frame []byte
		row   HeadlineRow
	}
	newest := make(map[int]found)
	size := 0
	for _, data := range logs {
		covered := walkFrames(data, true, summaryRead, func(rec TrialRecord, row HeadlineRow) {
			c.decoded++
			if !plan.plans(rec) {
				c.dropped++
				return
			}
			if old, dup := newest[rec.Trial]; dup {
				c.superseded++
				size -= len(old.frame)
			}
			newest[rec.Trial] = found{data[row.ref.Off : row.ref.Off+row.ref.Len], row}
			size += int(row.ref.Len)
		})
		c.torn += int64(len(data)) - covered
	}
	out = make([]byte, 0, size)
	rows = make(map[int]HeadlineRow, len(newest))
	for _, t := range sortedTrials(newest) {
		f := newest[t]
		f.row.ref = FrameRef{Off: int64(len(out)), Len: int64(len(f.frame))}
		rows[t] = f.row
		out = append(out, f.frame...)
	}
	return out, rows, c
}
