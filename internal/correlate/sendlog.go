package correlate

import (
	"fmt"
	"strings"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/identifier"
	"shadowmeter/internal/wire"
)

// The send log holds one record per decoy a campaign emits, so at the
// paper's geometry it holds about 20.8M of them. A decoy's label is its
// identifier: it encodes the send second, VP, destination, initial TTL and
// nonce. So a record keeps those fields instead of the label text, and the
// log finds a record from a label's decoded identifier. The fields many
// decoys share (where the decoy went, the domain after its label, protocol,
// phase) are one index into a small table of kinds. Records are free of
// pointers, which the garbage collector then never scans, and sit in chunks
// that are never moved. A *Sent is built only when a decoy leaks (or when
// SentByLabel asks for one), its label re-encoded from the record.

const recChunkBits = 12 // records per chunk: 4096 × 24 B

// sentRec is one send-log record.
type sentRec struct {
	sec      uint32 // the label's second, counted from the codec epoch
	nsec     uint32 // Time's nanoseconds; Time is rebuilt in UTC
	vp       wire.Addr
	labelDst wire.Addr // the label's destination; see sentKind.dst
	kind     uint32    // index into sendLog.kinds
	nonce    uint16
	ttl      uint8
	dnsSeen  bool // a DNS capture of this decoy has been classified (rule iii)
}

// sentKind holds the fields of a Sent that its label does not encode.
type sentKind struct {
	// dst is Sent.Dst. It is the label's destination except for ODoH
	// decoys, which are sent to a proxy and name the resolver in the label.
	dst     wire.Endpoint
	dstName string
	suffix  string // Domain after Label
	proto   decoy.Protocol
	phase   Phase

	expectRecursion bool
}

// sendLog is the Correlator's send log; the Correlator's mutex guards it.
type sendLog struct {
	codec *identifier.Codec
	recs  [][]sentRec // every chunk has cap 1<<recChunkBits; all but the last are full
	n     uint32
	// slots indexes the records by (second, nonce) with linear probing:
	// each slot holds a 1-based record index, or 0 when empty. Its length is
	// a power of two, and it doubles before it is more than 3/4 full.
	slots []uint32

	kinds   []sentKind
	kindIdx map[sentKind]uint32

	// leaked caches the Sent built for each decoy that has produced an
	// unsolicited capture, so all of its events share one record.
	leaked map[uint32]*Sent
}

func newSendLog(codec *identifier.Codec) sendLog {
	return sendLog{
		codec:   codec,
		kindIdx: make(map[sentKind]uint32),
		leaked:  make(map[uint32]*Sent),
	}
}

// rec returns record i for reading or updating.
func (l *sendLog) rec(i uint32) *sentRec {
	return &l.recs[i>>recChunkBits][i&(1<<recChunkBits-1)]
}

// second is id's send second counted from the codec epoch, as its label
// carries it.
func (l *sendLog) second(id identifier.ID) uint32 {
	return uint32(id.Time.Unix() - l.codec.Epoch.Unix())
}

// home is the first slot probed for (sec, nonce).
func (l *sendLog) home(sec uint32, nonce uint16) uint32 {
	h := (uint64(sec)<<16 | uint64(nonce)) * 0x9E3779B97F4A7C15
	return uint32(h>>32) & uint32(len(l.slots)-1)
}

// canonical reports whether label is exactly the label id encodes to.
func (l *sendLog) canonical(id identifier.ID, label string) bool {
	var buf [64]byte
	b, err := l.codec.AppendEncode(buf[:0], id)
	return err == nil && string(b) == label
}

// find returns the index of the record of label, whose decoded identifier
// is id.
func (l *sendLog) find(id identifier.ID, label string) (uint32, bool) {
	if len(l.slots) == 0 {
		return 0, false
	}
	sec, mask := l.second(id), uint32(len(l.slots)-1)
	for s := l.home(sec, id.Nonce); l.slots[s] != 0; s = (s + 1) & mask {
		i := l.slots[s] - 1
		r := l.rec(i)
		if r.sec == sec && r.nonce == id.Nonce && r.vp == id.VP && r.labelDst == id.Dst && r.ttl == id.TTL {
			// No two records share an identifier, so no later slot can
			// hold label's record.
			return i, l.canonical(id, label)
		}
	}
	return 0, false
}

// add appends s, whose label decodes to id, as a new record; the caller
// has checked that the label is not yet in the log.
func (l *sendLog) add(id identifier.ID, s *Sent) {
	if !l.canonical(id, s.Label) || id.Time.Unix() != s.Time.Unix() || id.VP != s.VP || id.TTL != s.TTL ||
		!strings.HasPrefix(s.Domain, s.Label) {
		panic(fmt.Sprintf("correlate: send record %q is not labeled with its own identifier", s.Label))
	}
	if l.n&(1<<recChunkBits-1) == 0 {
		l.recs = append(l.recs, make([]sentRec, 0, 1<<recChunkBits))
	}
	last := &l.recs[len(l.recs)-1]
	*last = append(*last, sentRec{
		sec: l.second(id), nsec: uint32(s.Time.Nanosecond()),
		vp: id.VP, labelDst: id.Dst,
		kind: l.kind(sentKind{
			dst: s.Dst, dstName: s.DstName, suffix: s.Domain[len(s.Label):],
			proto: s.Protocol, phase: s.Phase, expectRecursion: s.ExpectRecursion,
		}),
		nonce: id.Nonce, ttl: id.TTL,
	})
	l.n++
	if 4*uint64(l.n) > 3*uint64(len(l.slots)) {
		l.slots = make([]uint32, max(2*len(l.slots), 64))
		for j := uint32(1); j < l.n; j++ {
			l.index(j)
		}
	}
	l.index(l.n)
}

// index puts the 1-based record index j in the first free slot of its
// probe sequence.
func (l *sendLog) index(j uint32) {
	r, mask := l.rec(j-1), uint32(len(l.slots)-1)
	s := l.home(r.sec, r.nonce)
	for l.slots[s] != 0 {
		s = (s + 1) & mask
	}
	l.slots[s] = j
}

// kind returns the table index of k, adding it on first sight with copies
// of its strings, so a suffix does not pin the domain it was cut from.
func (l *sendLog) kind(k sentKind) uint32 {
	if i, ok := l.kindIdx[k]; ok {
		return i
	}
	k.dstName, k.suffix = strings.Clone(k.dstName), strings.Clone(k.suffix)
	i := uint32(len(l.kinds))
	l.kinds = append(l.kinds, k)
	l.kindIdx[k] = i
	return i
}

// build rebuilds record i as a Sent. Its label is re-encoded into the
// domain's one allocation.
func (l *sendLog) build(i uint32) *Sent {
	r := l.rec(i)
	k := &l.kinds[r.kind]
	epoch := l.codec.Epoch.Unix()
	var buf [128]byte
	//shadowlint:ignore droppederr the record was added from a label this ID encoded to
	label, _ := l.codec.AppendEncode(buf[:0], identifier.ID{
		Time: time.Unix(epoch+int64(r.sec), 0), VP: r.vp, Dst: r.labelDst, TTL: r.ttl, Nonce: r.nonce,
	})
	domain := string(append(label, k.suffix...))
	return &Sent{
		Label:    domain[:len(label)],
		Domain:   domain,
		Protocol: k.proto,
		VP:       r.vp,
		Dst:      k.dst,
		DstName:  k.dstName,
		Time:     time.Unix(epoch+int64(r.sec), int64(r.nsec)).UTC(),
		TTL:      r.ttl,
		Phase:    k.phase,

		ExpectRecursion: k.expectRecursion,
	}
}

// leak returns the shared Sent of record i, building it on the decoy's
// first unsolicited capture.
func (l *sendLog) leak(i uint32) *Sent {
	s, ok := l.leaked[i]
	if !ok {
		s = l.build(i)
		l.leaked[i] = s
	}
	return s
}
