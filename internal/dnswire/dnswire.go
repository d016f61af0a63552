// Package dnswire implements the DNS message wire format (RFC 1035): header,
// question, resource records, and name compression. It is the codec used by
// decoy generation, the simulated resolver fleet, the honeypot authoritative
// server, and on-path observers that sniff QNAMEs.
package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"shadowmeter/internal/wire"
)

// Record types used by the simulator.
const (
	TypeA     uint16 = 1
	TypeNS    uint16 = 2
	TypeCNAME uint16 = 5
	TypeSOA   uint16 = 6
	TypeTXT   uint16 = 16
	TypeAAAA  uint16 = 28
	TypeANY   uint16 = 255
)

// ClassIN is the Internet class.
const ClassIN uint16 = 1

// Response codes.
const (
	RcodeNoError  uint8 = 0
	RcodeFormErr  uint8 = 1
	RcodeServFail uint8 = 2
	RcodeNXDomain uint8 = 3
	RcodeRefused  uint8 = 5
)

// Opcode values.
const OpcodeQuery uint8 = 0

// Errors returned by the codec.
var (
	ErrTruncated    = errors.New("dnswire: truncated message")
	ErrBadName      = errors.New("dnswire: malformed domain name")
	ErrBadPointer   = errors.New("dnswire: bad compression pointer")
	ErrNameTooLong  = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong = errors.New("dnswire: label exceeds 63 octets")
)

// Header is the fixed 12-byte DNS header.
type Header struct {
	ID      uint16
	QR      bool  // response flag
	Opcode  uint8 // 4 bits
	AA      bool  // authoritative answer
	TC      bool  // truncated
	RD      bool  // recursion desired
	RA      bool  // recursion available
	Rcode   uint8 // 4 bits
	QDCount uint16
	ANCount uint16
	NSCount uint16
	ARCount uint16
}

// Question is one entry of the question section.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// RR is a resource record. Rdata holds the record-specific payload, already
// in wire form except for name-bearing types (CNAME/NS), which store the
// presentation-form target in Target for readability.
type RR struct {
	Name   string
	Type   uint16
	Class  uint16
	TTL    uint32
	Addr   wire.Addr // for A records
	Target string    // for CNAME/NS/SOA mname
	Text   string    // for TXT
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// NewQuery builds a standard recursive query for (name, qtype).
func NewQuery(id uint16, name string, qtype uint16) *Message {
	return &Message{
		Header:    Header{ID: id, RD: true, QDCount: 1},
		Questions: []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}

// EncodeQuery returns the bytes NewQuery(id, name, qtype).Encode() does, in
// one exactly sized buffer the caller owns: the encoder for decoys, whose
// payload outlives the call. A lone question has nothing to compress, so
// the name is written label by label with no compression table.
func EncodeQuery(id uint16, name string, qtype uint16) ([]byte, error) {
	// Header, the longest name Encoder.name accepts (253 octets plus two)
	// and QTYPE/QCLASS fit in this stack buffer.
	var tmp [12 + 255 + 4]byte
	b := append(tmp[:0], byte(id>>8), byte(id), 1, 0, 0, 1, 0, 0, 0, 0, 0, 0) // RD, QDCOUNT 1
	b, err := appendName(b, name)
	if err != nil {
		return nil, err
	}
	b = append(b, byte(qtype>>8), byte(qtype), byte(ClassIN>>8), byte(ClassIN))
	return append(make([]byte, 0, len(b)), b...), nil
}

// appendName writes n uncompressed, validating it exactly as Encoder.name
// does the first name of a message.
func appendName(b []byte, n string) ([]byte, error) {
	n = Canonical(n)
	if n == "." || n == "" {
		return append(b, 0), nil
	}
	if len(n) > 253 {
		return nil, ErrNameTooLong
	}
	for rest := n; rest != ""; {
		i := strings.IndexByte(rest, '.')
		var label string
		if i < 0 {
			label, rest = rest, ""
		} else {
			label, rest = rest[:i], rest[i+1:]
		}
		if label == "" {
			return nil, ErrBadName
		}
		if len(label) > 63 {
			return nil, ErrLabelTooLong
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0), nil
}

// QueryInto is NewQuery for senders that own a scratch Message: m is
// overwritten in place with its Questions array reused. Safe whenever the
// message is fully serialized before the scratch's next use.
func QueryInto(m *Message, id uint16, name string, qtype uint16) {
	*m = Message{
		Header:    Header{ID: id, RD: true, QDCount: 1},
		Questions: append(m.Questions[:0], Question{Name: name, Type: qtype, Class: ClassIN}),
		Answers:   m.Answers[:0], Authority: m.Authority[:0], Additional: m.Additional[:0],
	}
}

// NewResponse builds a response skeleton for q with the given rcode.
func NewResponse(q *Message, rcode uint8) *Message {
	resp := &Message{
		Header: Header{
			ID: q.Header.ID, QR: true, Opcode: q.Header.Opcode,
			RD: q.Header.RD, RA: true, Rcode: rcode,
		},
	}
	resp.Questions = append(resp.Questions, q.Questions...)
	return resp
}

// ResponseInto is NewResponse for reply loops that own a scratch Message:
// resp is overwritten in place, its section slices truncated and reused.
// The questions (and their name strings) are copied out of q, so resp
// remains valid when q is itself scratch and reused for the next decode.
func ResponseInto(resp *Message, q *Message, rcode uint8) {
	*resp = Message{
		Header: Header{
			ID: q.Header.ID, QR: true, Opcode: q.Header.Opcode,
			RD: q.Header.RD, RA: true, Rcode: rcode,
		},
		Questions:  append(resp.Questions[:0], q.Questions...),
		Answers:    resp.Answers[:0],
		Authority:  resp.Authority[:0],
		Additional: resp.Additional[:0],
	}
}

// QName returns the first question name, or "" if none.
func (m *Message) QName() string {
	if len(m.Questions) == 0 {
		return ""
	}
	return m.Questions[0].Name
}

// QType returns the first question type, or 0 if none.
func (m *Message) QType() uint16 {
	if len(m.Questions) == 0 {
		return 0
	}
	return m.Questions[0].Type
}

// Encoder holds reusable encode scratch — the output buffer and the name
// compression table — for call sites that serialize many messages from
// one goroutine (resolver reply loops, honeypot answers, probe emitters).
// The zero value is ready to use.
type Encoder struct {
	buf []byte
	// names is the compression table: every name suffix written so far
	// with the offset of its first encoding. A message holds a handful of
	// names, so a linear scan of a reused slice beats a map, and the
	// first-encoding rule (a suffix is added only when no entry matches)
	// gives the same pointers, hence the same bytes, as a map would.
	names []suffixOffset
}

type suffixOffset struct {
	suffix string
	off    int
}

// lookup returns the offset of suffix's first encoding, if any.
func (e *Encoder) lookup(suffix string) (int, bool) {
	for i := range e.names {
		if e.names[i].suffix == suffix {
			return e.names[i].off, true
		}
	}
	return 0, false
}

// Encode serializes the message to wire format with a private encoder,
// returning a buffer the caller owns. Header counts are derived from the
// section slices, overriding the caller's values.
func (m *Message) Encode() ([]byte, error) {
	e := Encoder{buf: make([]byte, 0, 512), names: make([]suffixOffset, 0, 8)}
	return m.AppendEncode(&e)
}

// AppendEncode serializes the message reusing enc's scratch. The returned
// slice aliases enc's internal buffer and is valid only until the next
// AppendEncode call — callers must copy (or hand the bytes to something
// that copies, like a packet builder) before encoding again.
func (m *Message) AppendEncode(enc *Encoder) ([]byte, error) {
	e := enc
	e.buf = e.buf[:0]
	clear(e.names) // drop the last message's name strings
	e.names = e.names[:0]
	h := m.Header
	h.QDCount = uint16(len(m.Questions))
	h.ANCount = uint16(len(m.Answers))
	h.NSCount = uint16(len(m.Authority))
	h.ARCount = uint16(len(m.Additional))

	var flags uint16
	if h.QR {
		flags |= 1 << 15
	}
	flags |= uint16(h.Opcode&0xF) << 11
	if h.AA {
		flags |= 1 << 10
	}
	if h.TC {
		flags |= 1 << 9
	}
	if h.RD {
		flags |= 1 << 8
	}
	if h.RA {
		flags |= 1 << 7
	}
	flags |= uint16(h.Rcode & 0xF)

	e.u16(h.ID)
	e.u16(flags)
	e.u16(h.QDCount)
	e.u16(h.ANCount)
	e.u16(h.NSCount)
	e.u16(h.ARCount)

	for _, q := range m.Questions {
		if err := e.name(q.Name); err != nil {
			return nil, err
		}
		e.u16(q.Type)
		e.u16(q.Class)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if err := e.rr(&sec[i]); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

func (e *Encoder) u16(v uint16) {
	e.buf = append(e.buf, byte(v>>8), byte(v))
}

func (e *Encoder) u32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// name writes a possibly-compressed domain name.
func (e *Encoder) name(n string) error {
	n = Canonical(n)
	if n == "." || n == "" {
		e.buf = append(e.buf, 0)
		return nil
	}
	if len(n) > 253 { // 255 octets on the wire: a length byte per label plus the root
		return ErrNameTooLong
	}
	rest := n
	for rest != "" {
		if off, ok := e.lookup(rest); ok {
			e.u16(0xC000 | uint16(off))
			return nil
		}
		if len(e.buf) < 0x3FFF {
			e.names = append(e.names, suffixOffset{rest, len(e.buf)})
		}
		i := strings.IndexByte(rest, '.')
		var label string
		if i < 0 {
			label, rest = rest, ""
		} else {
			label, rest = rest[:i], rest[i+1:]
		}
		if label == "" {
			return ErrBadName
		}
		if len(label) > 63 {
			return ErrLabelTooLong
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *Encoder) rr(r *RR) error {
	if err := e.name(r.Name); err != nil {
		return err
	}
	e.u16(r.Type)
	cls := r.Class
	if cls == 0 {
		cls = ClassIN
	}
	e.u16(cls)
	e.u32(r.TTL)
	switch r.Type {
	case TypeA:
		e.u16(4)
		e.buf = append(e.buf, r.Addr[:]...)
	case TypeCNAME, TypeNS:
		// RDLENGTH must be patched after the (possibly compressed) name.
		lenAt := len(e.buf)
		e.u16(0)
		start := len(e.buf)
		if err := e.name(r.Target); err != nil {
			return err
		}
		binary.BigEndian.PutUint16(e.buf[lenAt:lenAt+2], uint16(len(e.buf)-start))
	case TypeTXT:
		if len(r.Text) > 255 {
			return fmt.Errorf("dnswire: TXT string too long: %d", len(r.Text))
		}
		e.u16(uint16(1 + len(r.Text)))
		e.buf = append(e.buf, byte(len(r.Text)))
		e.buf = append(e.buf, r.Text...)
	case TypeSOA:
		// Minimal SOA: mname, rname ".", five zero timers — enough for
		// negative responses in the honeypot/resolver fleet.
		lenAt := len(e.buf)
		e.u16(0)
		start := len(e.buf)
		if err := e.name(r.Target); err != nil {
			return err
		}
		if err := e.name("hostmaster." + Canonical(r.Target)); err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			e.u32(r.TTL)
		}
		binary.BigEndian.PutUint16(e.buf[lenAt:lenAt+2], uint16(len(e.buf)-start))
	default:
		return fmt.Errorf("dnswire: cannot encode record type %d", r.Type)
	}
	return nil
}

// Decode parses a wire-format DNS message into a fresh Message the caller
// owns outright.
func Decode(data []byte) (*Message, error) {
	var m Message
	if err := DecodeInto(&m, data); err != nil {
		return nil, err
	}
	return &m, nil
}

// DecodeInto parses a wire-format DNS message into m, reusing m's section
// slices (truncated and refilled in place). Decoded names and TXT payloads
// are freshly allocated strings, so nothing in m aliases data (a record
// name compressed to the question name shares that name's string) — but the
// section backing arrays are recycled across calls, so DecodeInto is only
// for call sites that fully consume (or copy out of) one message before
// decoding the next. Everyone else should use Decode.
func DecodeInto(m *Message, data []byte) error {
	*m = Message{
		Questions:  m.Questions[:0],
		Answers:    m.Answers[:0],
		Authority:  m.Authority[:0],
		Additional: m.Additional[:0],
	}
	if len(data) < 12 {
		return ErrTruncated
	}
	h := &m.Header
	h.ID = binary.BigEndian.Uint16(data[0:2])
	flags := binary.BigEndian.Uint16(data[2:4])
	h.QR = flags&(1<<15) != 0
	h.Opcode = uint8(flags >> 11 & 0xF)
	h.AA = flags&(1<<10) != 0
	h.TC = flags&(1<<9) != 0
	h.RD = flags&(1<<8) != 0
	h.RA = flags&(1<<7) != 0
	h.Rcode = uint8(flags & 0xF)
	h.QDCount = binary.BigEndian.Uint16(data[4:6])
	h.ANCount = binary.BigEndian.Uint16(data[6:8])
	h.NSCount = binary.BigEndian.Uint16(data[8:10])
	h.ARCount = binary.BigEndian.Uint16(data[10:12])

	off := 12
	var q question
	for i := 0; i < int(h.QDCount); i++ {
		name, n, jumps, err := decodeName(data, off)
		if err != nil {
			return err
		}
		if i == 0 {
			q = question{name: name, ok: jumps <= maxJumps}
		}
		off = n
		if off+4 > len(data) {
			return ErrTruncated
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[off : off+2]),
			Class: binary.BigEndian.Uint16(data[off+2 : off+4]),
		})
		off += 4
	}
	var err error
	if m.Answers, off, err = decodeRRs(m.Answers, data, off, int(h.ANCount), q); err != nil {
		return err
	}
	if m.Authority, off, err = decodeRRs(m.Authority, data, off, int(h.NSCount), q); err != nil {
		return err
	}
	if m.Additional, _, err = decodeRRs(m.Additional, data, off, int(h.ARCount), q); err != nil {
		return err
	}
	return nil
}

// question is the first question name of a message being decoded, which a
// response's record names and targets mostly repeat as the two-byte
// pointer C0 0C to offset 12.
type question struct {
	name string
	// ok is set when a question was decoded at offset 12 following at
	// most maxJumps pointers, so decodeName would follow C0 0C to the same
	// name. Otherwise the pointer goes through decodeName: with no question
	// it is ErrBadPointer, and after a chain that long it is one jump too
	// many.
	ok bool
}

// nameAt decodes the name at off like decodeName, but returns q's string
// for exactly the pointer C0 0C instead of assembling a fresh copy. With
// keep false it only checks the name, as decoding it would, and returns
// "": nothing is allocated.
func (q question) nameAt(data []byte, off int, keep bool) (string, int, error) {
	if q.ok && off+1 < len(data) && data[off] == 0xC0 && data[off+1] == 12 {
		return q.name, off + 2, nil
	}
	if !keep {
		var buf [254]byte
		_, end, _, _, err := scanName(data, off, &buf)
		return "", end, err
	}
	name, end, _, err := decodeName(data, off)
	return name, end, err
}

// decodeRRs appends count records onto dst, reusing its backing array.
func decodeRRs(dst []RR, data []byte, off, count int, q question) ([]RR, int, error) {
	if count == 0 {
		return dst, off, nil
	}
	rrs := dst
	if rrs == nil {
		rrs = make([]RR, 0, count)
	}
	for i := 0; i < count; i++ {
		var r RR
		var err error
		if off, err = readRR(&r, data, off, q, true); err != nil {
			return nil, 0, err
		}
		rrs = append(rrs, r)
	}
	return rrs, off, nil
}

// readRR decodes the record at off into r and returns the offset after
// it. With keep false it checks the record's names and text exactly as
// decoding them would but leaves Name, Target and Text empty, so it
// allocates nothing; q's name is then unused.
func readRR(r *RR, data []byte, off int, q question, keep bool) (int, error) {
	name, off, err := q.nameAt(data, off, keep)
	if err != nil {
		return 0, err
	}
	if off+10 > len(data) {
		return 0, ErrTruncated
	}
	r.Name = name
	r.Type = binary.BigEndian.Uint16(data[off : off+2])
	r.Class = binary.BigEndian.Uint16(data[off+2 : off+4])
	r.TTL = binary.BigEndian.Uint32(data[off+4 : off+8])
	rdlen := int(binary.BigEndian.Uint16(data[off+8 : off+10]))
	off += 10
	if off+rdlen > len(data) {
		return 0, ErrTruncated
	}
	rdata := data[off : off+rdlen]
	switch r.Type {
	case TypeA:
		if rdlen != 4 {
			return 0, fmt.Errorf("dnswire: A record rdlength %d", rdlen)
		}
		copy(r.Addr[:], rdata)
	case TypeCNAME, TypeNS, TypeSOA:
		t, _, err := q.nameAt(data, off, keep)
		if err != nil {
			return 0, err
		}
		r.Target = t
	case TypeTXT:
		if rdlen > 0 {
			sl := int(rdata[0])
			if sl+1 > rdlen {
				return 0, ErrTruncated
			}
			if keep {
				r.Text = string(rdata[1 : 1+sl])
			}
		}
	}
	return off + rdlen, nil
}

// FirstA returns the address of the first A record in the answer section
// of the wire-format message data, for a caller that needs nothing else
// of a reply. It accepts exactly the messages DecodeInto accepts, and ok
// is false for any other or for one with no A answer, but it checks every
// name and record in place and builds no strings, so it allocates nothing.
func FirstA(data []byte) (addr wire.Addr, ok bool) {
	if len(data) < 12 {
		return wire.Addr{}, false
	}
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	rrs := an + int(binary.BigEndian.Uint16(data[8:10])) + int(binary.BigEndian.Uint16(data[10:12]))
	off := 12
	var q question
	for i := 0; i < qd; i++ {
		var buf [254]byte
		_, end, jumps, _, err := scanName(data, off, &buf)
		if err != nil {
			return wire.Addr{}, false
		}
		if i == 0 {
			q.ok = jumps <= maxJumps
		}
		off = end
		if off+4 > len(data) {
			return wire.Addr{}, false
		}
		off += 4
	}
	for i := 0; i < rrs; i++ {
		var r RR
		var err error
		if off, err = readRR(&r, data, off, q, false); err != nil {
			return wire.Addr{}, false
		}
		if i < an && !ok && r.Type == TypeA {
			addr, ok = r.Addr, true
		}
	}
	return addr, ok
}

// maxJumps bounds compression-pointer chains: decodeName refuses a pointer
// met after it has already followed more than maxJumps of them.
const maxJumps = 32

// decodeName reads a possibly-compressed name starting at off, returning the
// presentation-form name (lowercase, no trailing dot), the offset just past
// the name in the original (non-pointer) encoding, and the number of
// compression pointers followed. The name assembles in a stack buffer —
// lowercased as it is copied — so the only allocation is the returned
// string.
func decodeName(data []byte, off int) (string, int, int, error) {
	var buf [254]byte
	n, end, jumps, nonASCII, err := scanName(data, off, &buf)
	if err != nil {
		return "", 0, 0, err
	}
	if nonASCII {
		// Match strings.ToLower on the original bytes exactly (multi-byte
		// case folding) for the rare non-ASCII name.
		return strings.ToLower(string(buf[:n])), end, jumps, nil
	}
	return string(buf[:n]), end, jumps, nil
}

// scanName is decodeName's walk: it checks the name at off and assembles
// its lowercased presentation form in buf[:n], reporting whether it holds
// non-ASCII bytes. A caller that only needs the name checked discards buf.
func scanName(data []byte, off int, buf *[254]byte) (n, end, jumps int, nonASCII bool, err error) {
	// 253 presentation octets is the longest legal name; anything that
	// overruns the buffer is ErrNameTooLong whenever it terminates.
	end = -1 // offset after the name in the original stream
	for {
		if off >= len(data) {
			return 0, 0, 0, false, ErrTruncated
		}
		b := data[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			if n > 253 {
				return 0, 0, 0, false, ErrNameTooLong
			}
			return n, end, jumps, nonASCII, nil
		case b&0xC0 == 0xC0:
			if off+1 >= len(data) {
				return 0, 0, 0, false, ErrTruncated
			}
			ptr := int(binary.BigEndian.Uint16(data[off:off+2]) & 0x3FFF)
			if end < 0 {
				end = off + 2
			}
			if ptr >= off || jumps > maxJumps {
				return 0, 0, 0, false, ErrBadPointer
			}
			off = ptr
			jumps++
		case b&0xC0 != 0:
			return 0, 0, 0, false, ErrBadName
		default:
			l := int(b)
			if off+1+l > len(data) {
				return 0, 0, 0, false, ErrTruncated
			}
			if n > 0 {
				if n >= len(buf) {
					return 0, 0, 0, false, ErrNameTooLong
				}
				buf[n] = '.'
				n++
			}
			if n+l > len(buf) {
				return 0, 0, 0, false, ErrNameTooLong
			}
			for i := 0; i < l; i++ {
				c := data[off+1+i]
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				} else if c >= 0x80 {
					nonASCII = true
				} else if c == '.' {
					// The presentation form has no escapes, so a dot inside
					// a label would re-encode as a label boundary.
					return 0, 0, 0, false, ErrBadName
				}
				buf[n] = c
				n++
			}
			off += 1 + l
		}
	}
}

// QueryNameFromBytes extracts the first question name of a wire-format DNS
// query without materializing the whole message: the observer-tap fast
// path, which runs on every DNS packet a tap could record. It returns
// ok=false for responses, truncated messages, and anything the full decoder
// would reject; messages with extra sections or compression pointers take
// the slow path through Decode so the two agree on every input.
func QueryNameFromBytes(data []byte) (string, bool) {
	if len(data) < 12 {
		return "", false
	}
	flags := binary.BigEndian.Uint16(data[2:4])
	if flags&(1<<15) != 0 {
		return "", false // response, not a query
	}
	qd := binary.BigEndian.Uint16(data[4:6])
	if qd == 0 {
		return "", false
	}
	if qd > 1 || data[6]|data[7]|data[8]|data[9]|data[10]|data[11] != 0 {
		return queryNameSlow(data)
	}
	// Single question, no other sections: read the name in place.
	var buf [253]byte
	n := 0
	off := 12
	for {
		if off >= len(data) {
			return "", false
		}
		b := data[off]
		switch {
		case b == 0:
			if off+5 > len(data) {
				return "", false // QTYPE/QCLASS missing
			}
			return string(buf[:n]), true
		case b&0xC0 == 0xC0:
			return queryNameSlow(data) // compressed name: full decoder
		case b&0xC0 != 0:
			return "", false
		default:
			l := int(b)
			if off+1+l > len(data) {
				return "", false
			}
			if n > 0 {
				if n+1+l > len(buf) {
					return "", false
				}
				buf[n] = '.'
				n++
			} else if l > len(buf) {
				return "", false
			}
			for i := 0; i < l; i++ {
				c := data[off+1+i]
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				} else if c >= 0x80 {
					return queryNameSlow(data) // non-ASCII case folding
				} else if c == '.' {
					return "", false // Decode rejects a dot inside a label
				}
				buf[n] = c
				n++
			}
			off += 1 + l
		}
	}
}

// queryNameSlow is QueryNameFromBytes's fallback for message shapes the
// in-place scanner does not handle.
func queryNameSlow(data []byte) (string, bool) {
	msg, err := Decode(data)
	if err != nil || msg.Header.QR || len(msg.Questions) == 0 {
		return "", false
	}
	return msg.QName(), true
}

// Canonical lowercases a domain name and strips any trailing dot, giving the
// form used as map keys throughout the pipeline. A name already in that form
// (the simulator's names almost always are) comes back without a copy.
func Canonical(name string) string {
	if n := len(name); n > 0 && name[n-1] == '.' {
		name = name[:n-1]
	}
	if isLowerASCII(name) {
		return name
	}
	return strings.ToLower(name)
}

// isLowerASCII reports whether s has no byte in 'A'..'Z' and none >= 0x80,
// so strings.ToLower(s) == s. It tests eight bytes per step, the last step
// overlapping the one before it when len(s) is not a multiple of 8.
func isLowerASCII(s string) bool {
	if len(s) < 8 {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c >= 0x80 || 'A' <= c && c <= 'Z' {
				return false
			}
		}
		return true
	}
	acc := notLowerASCII(wordAt(s[len(s)-8:]))
	for ; len(s) > 8; s = s[8:] {
		acc |= notLowerASCII(wordAt(s))
	}
	return acc == 0
}

// wordAt loads s[0:8] as a little-endian word; the compiler merges the
// shifts into one 8-byte load.
func wordAt(s string) uint64 {
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// notLowerASCII sets the top bit of each byte of w that is in 'A'..'Z' or
// >= 0x80, and possibly of bytes above one >= 0x80. For a byte below 0x80,
// adding 0x80-'A' sets its top bit iff it is >= 'A', and adding 0x80-'Z'-1
// sets it iff it is > 'Z'; neither sum carries into the next byte.
func notLowerASCII(w uint64) uint64 {
	const (
		ones = 0x0101010101010101
		geA  = (0x80 - 'A') * ones
		gtZ  = (0x80 - 'Z' - 1) * ones
	)
	return (w | (w+geA)&^(w+gtZ)) & (0x80 * ones)
}

// IsSubdomain reports whether name is equal to or under zone.
func IsSubdomain(name, zone string) bool {
	name, zone = Canonical(name), Canonical(zone)
	if zone == "" {
		return true
	}
	return name == zone || strings.HasSuffix(name, "."+zone)
}

// FirstLabel returns the left-most label of name, or "" for the root.
func FirstLabel(name string) string {
	name = Canonical(name)
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// Parent returns name with its left-most label removed ("" at the root).
func Parent(name string) string {
	name = Canonical(name)
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return ""
}
