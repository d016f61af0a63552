// Merge: fold shard stores into one campaign directory.
//
// The shard data plane (`shadowmeter -shard i/N`) leaves one store per
// worker, each holding a disjoint slice of the trial plan. Merge walks
// every source log with the salvage pass compaction uses —
// resynchronizing on the frame magic, so a torn shard log costs at most
// its torn record — and assembles the newest valid record per trial
// across all sources, copying frame bytes verbatim (records are never
// re-encoded, so the merged store is byte-identical to one written by
// an unsharded run). The merged log and sidecar are published first
// and the manifest last, through the same atomic tmp+fsync+rename path
// as every other campaign artifact: until the manifest lands, the
// destination "holds no campaign", so a crash mid-merge can never leave
// a half-campaign that opens.
package runstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"shadowmeter/internal/telemetry"
)

// MergeStats reports what one merge pass did.
type MergeStats struct {
	// Sources is the number of source stores folded.
	Sources int
	// Records is the number of trial records in the merged log.
	Records int
	// Superseded counts decodable frames replaced by a newer record for
	// the same trial — a duplicate within one source, or an overlapping
	// trial where a later-listed source wins (sources are recency-ordered
	// by argument position, like file order within one log).
	Superseded int
	// Dropped counts decodable frames that belong to a foreign campaign:
	// wrong config hash, a seed off the campaign's seed plan, or a trial
	// index outside every source's plan.
	Dropped int
	// TornBytes is the total undecodable source bytes skipped over.
	TornBytes int64
	// Bytes is the merged log size.
	Bytes int64
}

// Merge folds the source campaign stores into a fresh campaign at dst.
// Every source must carry the same config hash, base seed, and scale —
// shard stores of one campaign — and dst must not already hold a
// campaign. The merged trial plan is the largest source plan, and it is
// also the keep rule, as in Compact; the merged manifest carries
// MergedFrom provenance and clears any shard geometry. Sources are read
// without opening them as stores, so merging never mutates a shard (a
// live worker's store is safe to lose a race with — its in-flight record
// simply does not decode yet).
func Merge(dst string, srcs []string, set *telemetry.Set) (Manifest, MergeStats, error) {
	var st MergeStats
	if len(srcs) == 0 {
		return Manifest{}, st, fmt.Errorf("runstore: merge needs at least one source store")
	}
	man := Manifest{Version: StoreVersion, MergedFrom: len(srcs)}
	for i, src := range srcs {
		sm, err := ReadManifest(src)
		if err != nil {
			return Manifest{}, st, err
		}
		if i == 0 {
			man.ConfigHash, man.BaseSeed, man.Scale = sm.ConfigHash, sm.BaseSeed, sm.Scale
		} else if sm.ConfigHash != man.ConfigHash || sm.BaseSeed != man.BaseSeed || sm.Scale != man.Scale {
			return Manifest{}, st, fmt.Errorf(
				"runstore: refusing to merge %s into the campaign started from %s: config hash/base seed/scale differ (stored %s seed %d scale %q, expected %s seed %d scale %q) — shards of one campaign share all three",
				src, srcs[0], sm.ConfigHash, sm.BaseSeed, sm.Scale, man.ConfigHash, man.BaseSeed, man.Scale)
		}
		if sm.Trials > man.Trials {
			man.Trials = sm.Trials
		}
	}
	if _, err := os.Stat(ManifestPath(dst)); err == nil {
		return Manifest{}, st, fmt.Errorf("runstore: %s already holds a campaign; merge needs a fresh destination", dst)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return Manifest{}, st, err
	}

	s := newStore(dst, man, set, false)

	// Sources are salvaged in argument order, so a later-listed shard
	// supersedes an earlier one on overlap, as a later frame supersedes
	// an earlier one within a log.
	var logs [][]byte
	for _, src := range srcs {
		data, err := os.ReadFile(LogPath(src))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // a shard that never appended has no log yet
			}
			return Manifest{}, st, fmt.Errorf("runstore: reading shard log %s: %w", src, err)
		}
		s.m.bytesRead.Add(int64(len(data)))
		logs = append(logs, data)
	}
	out, rows, sv := salvage(logs, man)
	s.m.recordsRead.Add(int64(sv.decoded))
	st.Sources = len(srcs)
	st.Records = len(rows)
	st.Superseded = sv.superseded
	st.Dropped = sv.dropped
	st.TornBytes = sv.torn
	st.Bytes = int64(len(out))

	if err := os.MkdirAll(dst, 0o755); err != nil {
		return Manifest{}, st, fmt.Errorf("runstore: creating merge destination: %w", err)
	}
	if err := publishFile(dst, logName, out); err != nil {
		return Manifest{}, st, err
	}
	s.end = st.Bytes
	s.rows = rows
	if err := s.publishSidecarLocked(); err != nil {
		return Manifest{}, st, err
	}
	// The manifest is the commit point: published last, so a crash
	// anywhere above leaves a directory that "holds no campaign".
	if err := writeManifest(dst, man); err != nil {
		return Manifest{}, st, err
	}
	s.m.recordsWritten.Add(int64(st.Records))
	s.m.bytesWritten.Add(st.Bytes)
	return man, st, nil
}
