// Sidecar cache: the per-trial index (headlines.col), one row per
// stored trial locating its frame and carrying its headline stats.
//
// It is a pure derivation of trials.log — losing it costs one rebuild
// scan, never data — and it is stamped with the log size it was built
// from, so any append or truncation since publication makes it
// detectably stale. It is published atomically (tmp + fsync + rename +
// dir-fsync) on Close and after Compact and Merge, and carries a
// trailing CRC32 so a torn sidecar is treated as stale rather than
// trusted. A file of another version (version 1, written by older
// builds next to a separate index.bin) is stale the same way.
//
// headlines.col is column-major so an analysis touching two of the
// fixed columns (say seed and max delay) reads two contiguous runs
// (all integers big-endian):
//
//	u32 magic "SHC1" | u32 version 2 | u64 log size | u32 rows | u32 keys
//	9 fixed i64 columns × rows: trial, seed, vstart, vend,
//	    event count, min delay, max delay, frame offset, frame length
//	keys × { u16 name length, name bytes }   (sorted)
//	keys × { presence bitmap ceil(rows/8), rows × f64 values }
//	u32 CRC32 of everything above
//
// The presence bitmap keeps absent headline keys distinguishable from
// stored zeros, so rows reconstructed from the column file are exactly
// the rows the records would produce.
package runstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
)

const (
	headlinesName = "headlines.col"

	colMagic       = 0x53484331 // "SHC1"
	colVersion     = 2
	maxSidecarSize = 1 << 30
	// maxSidecarEntries bounds decoded row/key counts before they size
	// anything — like maxFramePayload, a corrupt count must not turn
	// into a giant allocation (or an int overflow on 32-bit platforms).
	maxSidecarEntries = 1 << 26
)

// HeadlinesPath returns the sidecar index location inside a campaign
// dir.
func HeadlinesPath(dir string) string { return filepath.Join(dir, headlinesName) }

// publishSidecarLocked writes the sidecar for the current in-memory
// index. Caller holds s.mu.
func (s *Store) publishSidecarLocked() error {
	if err := publishFile(s.dir, headlinesName, encodeHeadlines(s.end, s.rows)); err != nil {
		return err
	}
	s.stale = false
	return nil
}

// loadSidecar loads the sidecar if it exists, parses, carries the
// current log size, and its frames tile the log; it reports whether the
// in-memory index was populated. Any inconsistency — missing file, CRC,
// version or size mismatch, frames that do not tile the log — just
// means "rebuild by scanning", never an error: the sidecar is a cache.
func (s *Store) loadSidecar(logSize int64) bool {
	data, err := os.ReadFile(HeadlinesPath(s.dir))
	if err != nil {
		return false
	}
	size, rows, err := decodeHeadlines(data)
	if err != nil || size != logSize {
		return false
	}
	// The frames must tile [0, logSize) exactly: contiguous, in-bounds,
	// ending at the size the sidecar was stamped with. Anything else
	// means the log changed in a way the size check missed.
	refs := make([]FrameRef, 0, len(rows))
	for _, row := range rows {
		refs = append(refs, row.ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Off < refs[j].Off })
	var at int64
	for _, ref := range refs {
		if ref.Off != at || ref.Len <= headerSize {
			return false
		}
		at += ref.Len
	}
	if at != logSize {
		return false
	}
	s.rows = rows
	s.m.bytesRead.Add(int64(len(data)))
	return true
}

func encodeHeadlines(logSize int64, rows map[int]HeadlineRow) []byte {
	trials := sortedTrials(rows)
	n := len(trials)
	keySet := make(map[string]bool)
	for _, t := range trials {
		for k := range rows[t].Headline {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	buf := make([]byte, 0, 24+len(fixedColumns)*8*n+len(keys)*(8*n+n/8+16)+4)
	buf = binary.BigEndian.AppendUint32(buf, colMagic)
	buf = binary.BigEndian.AppendUint32(buf, colVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(logSize))
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(keys)))
	for _, col := range fixedColumns {
		for _, t := range trials {
			buf = binary.BigEndian.AppendUint64(buf, uint64(col.get(rows[t])))
		}
	}
	for _, k := range keys {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(k)))
		buf = append(buf, k...)
	}
	bitmapLen := (n + 7) / 8
	for _, k := range keys {
		bitmap := make([]byte, bitmapLen)
		for i, t := range trials {
			if _, ok := rows[t].Headline[k]; ok {
				bitmap[i/8] |= 1 << (i % 8)
			}
		}
		buf = append(buf, bitmap...)
		for _, t := range trials {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(rows[t].Headline[k]))
		}
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func decodeHeadlines(data []byte) (int64, map[int]HeadlineRow, error) {
	body, err := checkSidecar(data)
	if err != nil {
		return 0, nil, err
	}
	if len(body) < 16 {
		return 0, nil, errors.New("truncated headline header")
	}
	logSize := int64(binary.BigEndian.Uint64(body))
	n := int(binary.BigEndian.Uint32(body[8:]))
	k := int(binary.BigEndian.Uint32(body[12:]))
	body = body[16:]
	if n < 0 || n > maxSidecarEntries || k < 0 || k > maxSidecarEntries || len(body) < len(fixedColumns)*8*n {
		return 0, nil, errors.New("truncated headline columns")
	}
	rowList := make([]HeadlineRow, n)
	for i := range rowList {
		rowList[i].Headline = make(map[string]float64)
	}
	for _, col := range fixedColumns {
		for i := 0; i < n; i++ {
			col.set(&rowList[i], int64(binary.BigEndian.Uint64(body[8*i:])))
		}
		body = body[8*n:]
	}
	// Each key costs at least its length prefix, bitmap and value column:
	// bound k by the bytes left before it sizes the key table.
	bitmapLen := (n + 7) / 8
	if k > len(body)/(2+bitmapLen+8*n) {
		return 0, nil, fmt.Errorf("%d keys cannot fit in %d bytes", k, len(body))
	}
	keys := make([]string, k)
	for i := range keys {
		if len(body) < 2 {
			return 0, nil, errors.New("truncated key table")
		}
		l := int(binary.BigEndian.Uint16(body))
		if len(body) < 2+l {
			return 0, nil, errors.New("truncated key name")
		}
		keys[i] = string(body[2 : 2+l])
		body = body[2+l:]
	}
	for _, key := range keys {
		if len(body) < bitmapLen+8*n {
			return 0, nil, errors.New("truncated value columns")
		}
		bitmap := body[:bitmapLen]
		vals := body[bitmapLen:]
		for i := 0; i < n; i++ {
			if bitmap[i/8]&(1<<(i%8)) != 0 {
				rowList[i].Headline[key] = math.Float64frombits(binary.BigEndian.Uint64(vals[8*i:]))
			}
		}
		body = body[bitmapLen+8*n:]
	}
	if len(body) != 0 {
		return 0, nil, fmt.Errorf("%d trailing bytes after value columns", len(body))
	}
	rows := make(map[int]HeadlineRow, n)
	for _, row := range rowList {
		rows[row.Trial] = row
	}
	if len(rows) != n {
		return 0, nil, errors.New("duplicate trials in headline file")
	}
	return logSize, rows, nil
}

// fixedColumns maps the nine per-trial scalar columns to HeadlineRow
// fields, in file order. One table serves encode and decode so the two
// can never disagree on layout.
var fixedColumns = []struct {
	get func(HeadlineRow) int64
	set func(*HeadlineRow, int64)
}{
	{func(r HeadlineRow) int64 { return int64(r.Trial) }, func(r *HeadlineRow, v int64) { r.Trial = int(v) }},
	{func(r HeadlineRow) int64 { return r.Seed }, func(r *HeadlineRow, v int64) { r.Seed = v }},
	{func(r HeadlineRow) int64 { return r.VStartNS }, func(r *HeadlineRow, v int64) { r.VStartNS = v }},
	{func(r HeadlineRow) int64 { return r.VEndNS }, func(r *HeadlineRow, v int64) { r.VEndNS = v }},
	{func(r HeadlineRow) int64 { return int64(r.Events) }, func(r *HeadlineRow, v int64) { r.Events = int(v) }},
	{func(r HeadlineRow) int64 { return r.MinDelayNS }, func(r *HeadlineRow, v int64) { r.MinDelayNS = v }},
	{func(r HeadlineRow) int64 { return r.MaxDelayNS }, func(r *HeadlineRow, v int64) { r.MaxDelayNS = v }},
	{func(r HeadlineRow) int64 { return r.ref.Off }, func(r *HeadlineRow, v int64) { r.ref.Off = v }},
	{func(r HeadlineRow) int64 { return r.ref.Len }, func(r *HeadlineRow, v int64) { r.ref.Len = v }},
}

// checkSidecar validates the sidecar's magic, version and trailing CRC
// and returns the body between header and CRC.
func checkSidecar(data []byte) ([]byte, error) {
	if len(data) < 12 || len(data) > maxSidecarSize {
		return nil, errors.New("implausible sidecar size")
	}
	if binary.BigEndian.Uint32(data) != colMagic {
		return nil, errors.New("bad magic")
	}
	if v := binary.BigEndian.Uint32(data[4:]); v != colVersion {
		return nil, fmt.Errorf("sidecar version %d, want %d", v, colVersion)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return nil, errors.New("sidecar CRC mismatch")
	}
	return body[8:], nil
}

// sortedTrials returns the map's trial keys in ascending order.
func sortedTrials[V any](m map[int]V) []int {
	trials := make([]int, 0, len(m))
	for t := range m {
		trials = append(trials, t)
	}
	sort.Ints(trials)
	return trials
}
