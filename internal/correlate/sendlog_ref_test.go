package correlate

import (
	"strings"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/honeypot"
	"shadowmeter/internal/identifier"
	"shadowmeter/internal/wire"
)

// refSendLog is the send log as it was before records were found by their
// decoded identifier: a label-hash index with per-record chains and the
// label and domain text in an arena. It is kept, renamed but otherwise
// unchanged, as the reference TestSendLogMatchesReference and FuzzSendLog
// hold the label-addressed log to.

// The send log holds one record per decoy a campaign emits, so at the
// paper's geometry it holds about 20.8M of them. It is kept free of
// pointers, which the garbage collector then never scans: fixed-size
// records in chunks that are never moved, the label and domain bytes in
// a text arena, the destination names and domain suffixes in a small
// string table, and a label index keyed by a 64-bit label hash. A *Sent is
// built only when a decoy leaks (or when SentByLabel asks for one).

const (
	refRecChunkBits  = 12 // records per chunk: 4096 × 56 B
	refTextChunkBits = 20 // text arena chunk: 1 MiB
	refNoSuffix      = ^uint32(0)
)

// refSentRec is one send-log record: a Sent with its strings replaced by
// arena offsets and table indices.
type refSentRec struct {
	sec  int64  // Time, Unix seconds
	nsec uint32 // Time, nanoseconds; rebuilt in UTC
	// text is the arena offset of the label's bytes. When suffix is
	// refNoSuffix the full domain (domLen bytes) follows the label; otherwise
	// the domain is the label followed by strs[suffix].
	text     uint32
	labelLen uint16
	domLen   uint16
	suffix   uint32
	dstName  uint32 // index into strs
	next     uint32 // 1-based index of the next record with the same label hash; 0 ends the chain
	dnsSeen  uint32 // DNS captures of this label so far (rule iii)
	vp, dst  wire.Addr
	port     uint16
	proto    uint8
	phase    uint8
	ttl      uint8

	expectRecursion bool
}

// refSendLog is the Correlator's send log; the Correlator's mutex guards it.
type refSendLog struct {
	recs  [][]refSentRec // every chunk has cap 1<<refRecChunkBits; all but the last are full
	n     uint32
	text  [][]byte          // every chunk has cap 1<<refTextChunkBits
	index map[uint64]uint32 // label hash -> 1-based index of the chain's first record

	strs   []string
	strIdx map[string]uint32

	// leaked caches the Sent built for each decoy that has produced an
	// unsolicited capture, so all of its events share one record.
	leaked map[uint32]*Sent
}

func newRefSendLog() refSendLog {
	return refSendLog{
		index:  make(map[uint64]uint32),
		strIdx: make(map[string]uint32),
		leaked: make(map[uint32]*Sent),
	}
}

// refLabelHash is 64-bit FNV-1a. Records are matched on the label bytes
// themselves, so a collision costs one chain step and changes nothing.
func refLabelHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// rec returns record i for reading or updating.
func (l *refSendLog) rec(i uint32) *refSentRec {
	return &l.recs[i>>refRecChunkBits][i&(1<<refRecChunkBits-1)]
}

// bytes returns n arena bytes at offset off.
func (l *refSendLog) bytes(off uint32, n int) []byte {
	return l.text[off>>refTextChunkBits][off&(1<<refTextChunkBits-1):][:n]
}

func (l *refSendLog) label(r *refSentRec) []byte { return l.bytes(r.text, int(r.labelLen)) }

// find returns the index of the record whose label is label.
func (l *refSendLog) find(label string) (uint32, bool) {
	for j := l.index[refLabelHash(label)]; j != 0; {
		r := l.rec(j - 1)
		if string(l.label(r)) == label {
			return j - 1, true
		}
		j = r.next
	}
	return 0, false
}

// add appends s as a new record; the caller has checked that its label is
// not yet in the log.
func (l *refSendLog) add(s *Sent) {
	if len(s.Label) > 0xFFFF || len(s.Domain) > 0xFFFF {
		panic("correlate: send record label or domain longer than 65535 bytes")
	}
	if int(uint8(s.Protocol)) != int(s.Protocol) || int(uint8(s.Phase)) != int(s.Phase) {
		panic("correlate: send record protocol or phase out of range")
	}
	r := refSentRec{
		sec: s.Time.Unix(), nsec: uint32(s.Time.Nanosecond()),
		labelLen: uint16(len(s.Label)),
		suffix:   refNoSuffix,
		dstName:  l.str(s.DstName),
		vp:       s.VP, dst: s.Dst.Addr, port: s.Dst.Port,
		proto: uint8(s.Protocol), phase: uint8(s.Phase), ttl: s.TTL,
		expectRecursion: s.ExpectRecursion,
	}
	if suffix, ok := strings.CutPrefix(s.Domain, s.Label); ok {
		r.suffix = l.str(suffix)
		r.text = l.store(s.Label, "")
	} else {
		r.domLen = uint16(len(s.Domain))
		r.text = l.store(s.Label, s.Domain)
	}
	h := refLabelHash(s.Label)
	r.next = l.index[h]
	if l.n&(1<<refRecChunkBits-1) == 0 {
		l.recs = append(l.recs, make([]refSentRec, 0, 1<<refRecChunkBits))
	}
	last := &l.recs[len(l.recs)-1]
	*last = append(*last, r)
	l.n++
	l.index[h] = l.n
}

// store copies a and b, back to back, into the text arena and returns
// their offset. The pair never straddles two chunks.
func (l *refSendLog) store(a, b string) uint32 {
	n := len(a) + len(b)
	if k := len(l.text); k == 0 || len(l.text[k-1])+n > 1<<refTextChunkBits {
		if len(l.text) == 1<<(32-refTextChunkBits) {
			panic("correlate: send-log text arena full")
		}
		l.text = append(l.text, make([]byte, 0, 1<<refTextChunkBits))
	}
	k := len(l.text) - 1
	off := uint32(k)<<refTextChunkBits | uint32(len(l.text[k]))
	l.text[k] = append(append(l.text[k], a...), b...)
	return off
}

// str returns the table index of s, adding a copy of s on first sight (a
// copy, so a suffix does not pin the domain it was cut from).
func (l *refSendLog) str(s string) uint32 {
	if i, ok := l.strIdx[s]; ok {
		return i
	}
	s = strings.Clone(s)
	i := uint32(len(l.strs))
	l.strs = append(l.strs, s)
	l.strIdx[s] = i
	return i
}

// build rebuilds record i as a Sent. Label is a prefix of Domain whenever
// it was when the record was added, so the two share one allocation.
func (l *refSendLog) build(i uint32) *Sent {
	r := l.rec(i)
	var domain, label string
	if r.suffix == refNoSuffix {
		text := l.bytes(r.text, int(r.labelLen)+int(r.domLen))
		label, domain = string(text[:r.labelLen]), string(text[r.labelLen:])
	} else {
		var b strings.Builder
		b.Grow(int(r.labelLen) + len(l.strs[r.suffix]))
		b.Write(l.label(r))
		b.WriteString(l.strs[r.suffix])
		domain = b.String()
		label = domain[:r.labelLen]
	}
	return &Sent{
		Label:    label,
		Domain:   domain,
		Protocol: decoy.Protocol(r.proto),
		VP:       r.vp,
		Dst:      wire.Endpoint{Addr: r.dst, Port: r.port},
		DstName:  l.strs[r.dstName],
		Time:     time.Unix(r.sec, int64(r.nsec)).UTC(),
		TTL:      r.ttl,
		Phase:    Phase(r.phase),

		ExpectRecursion: r.expectRecursion,
	}
}

// leak returns the shared Sent of record i, building it on the decoy's
// first unsolicited capture.
func (l *refSendLog) leak(i uint32) *Sent {
	s, ok := l.leaked[i]
	if !ok {
		s = l.build(i)
		l.leaked[i] = s
	}
	return s
}

// refCorrelator is the Correlator's send-log logic over refSendLog, as it
// was: AddSent, SentByLabel and classify without the metrics.
type refCorrelator struct {
	codec *identifier.Codec
	log   refSendLog
	stats Stats
}

func newRefCorrelator(codec *identifier.Codec) *refCorrelator {
	return &refCorrelator{codec: codec, log: newRefSendLog()}
}

func (c *refCorrelator) AddSent(s *Sent) {
	if _, dup := c.log.find(s.Label); dup {
		c.stats.LabelCollisions++
		return
	}
	c.log.add(s)
	c.stats.SentDecoys++
}

func (c *refCorrelator) SentByLabel(label string) (*Sent, bool) {
	i, ok := c.log.find(label)
	if !ok {
		return nil, false
	}
	if s, ok := c.log.leaked[i]; ok {
		return s, true
	}
	return c.log.build(i), true
}

// Classify expects captures in timestamp order.
func (c *refCorrelator) Classify(captures []honeypot.Capture) []Unsolicited {
	var out []Unsolicited
	for i := range captures {
		out = c.classify(&captures[i], out)
	}
	return out
}

func (c *refCorrelator) classify(cap *honeypot.Capture, out []Unsolicited) []Unsolicited {
	c.stats.Captures++
	if cap.Label == "" {
		c.stats.UnknownLabel++
		return out
	}
	if _, err := c.codec.Decode(cap.Label); err != nil {
		c.stats.ChecksumRejected++
		return out
	}
	i, ok := c.log.find(cap.Label)
	if !ok {
		c.stats.UnknownLabel++
		return out
	}
	r := c.log.rec(i)
	sentProto := decoy.Protocol(r.proto)

	rule := 0
	switch {
	case cap.Protocol == decoy.HTTP || cap.Protocol == decoy.TLS:
		rule = 2
	case cap.Protocol != sentProto:
		rule = 1
	case cap.Protocol == decoy.DNS:
		r.dnsSeen++
		if !r.expectRecursion || r.dnsSeen > 1 {
			rule = 3
		}
	}
	if rule == 0 {
		c.stats.Solicited++
		return out
	}
	c.stats.Unsolicited++
	sent := c.log.leak(i)
	return append(out, Unsolicited{
		Capture:     *cap,
		Sent:        sent,
		Delay:       cap.Time.Sub(sent.Time),
		Combination: combination(sentProto, cap.Protocol),
		Rule:        rule,
	})
}
