package dnswire

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"shadowmeter/internal/wire"
)

// decodePlain is DecodeInto with every record name and target read through
// decodeName, never reusing the question name: the reference the reuse
// must agree with.
func decodePlain(data []byte) (*Message, error) {
	if len(data) < 12 {
		return nil, ErrTruncated
	}
	// DecodeInto parses the flags from a header whose counts are zeroed.
	hdr := append([]byte(nil), data[:12]...)
	clear(hdr[4:])
	var m Message
	if err := DecodeInto(&m, hdr); err != nil {
		return nil, err
	}
	h := &m.Header
	h.QDCount = binary.BigEndian.Uint16(data[4:6])
	h.ANCount = binary.BigEndian.Uint16(data[6:8])
	h.NSCount = binary.BigEndian.Uint16(data[8:10])
	h.ARCount = binary.BigEndian.Uint16(data[10:12])
	off := 12
	for i := 0; i < int(h.QDCount); i++ {
		name, n, _, err := decodeName(data, off)
		if err != nil {
			return nil, err
		}
		if off = n; off+4 > len(data) {
			return nil, ErrTruncated
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[off : off+2]),
			Class: binary.BigEndian.Uint16(data[off+2 : off+4]),
		})
		off += 4
	}
	var none question
	var err error
	if m.Answers, off, err = decodeRRs(nil, data, off, int(h.ANCount), none); err != nil {
		return nil, err
	}
	if m.Authority, off, err = decodeRRs(nil, data, off, int(h.NSCount), none); err != nil {
		return nil, err
	}
	if m.Additional, _, err = decodeRRs(nil, data, off, int(h.ARCount), none); err != nil {
		return nil, err
	}
	return &m, nil
}

// checkAgainstPlain fails t unless Decode and decodePlain agree on data:
// the same error, or messages equal field by field.
func checkAgainstPlain(t *testing.T, data []byte) *Message {
	t.Helper()
	got, err := Decode(data)
	want, werr := decodePlain(data)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("Decode error %v, plain decode error %v", err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode and plain decode differ:\n got %+v\nwant %+v", got, want)
	}
	return got
}

func sameBytes(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// TestQuestionNameReuse checks that a record name, NS name and CNAME target
// compressed to exactly C0 0C share the question name's bytes, and that
// the message is otherwise what the plain decodeName path gives.
func TestQuestionNameReuse(t *testing.T) {
	const name = "g6d8jjkut5obc4-9982.www.experiment.domain"
	m := NewResponse(NewQuery(7, name, TypeA), RcodeNoError)
	m.Answers = append(m.Answers,
		RR{Name: name, Type: TypeCNAME, TTL: 60, Target: name},
		RR{Name: name, Type: TypeA, TTL: 60, Addr: wire.AddrFrom(203, 0, 113, 1)})
	m.Authority = append(m.Authority, RR{Name: name, Type: TypeNS, TTL: 60, Target: "ns1.experiment.domain"})
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if ptrs := strings.Count(string(data), "\xc0\x0c"); ptrs != 4 {
		t.Fatalf("encoding holds %d C0 0C pointers, want 4: % x", ptrs, data)
	}
	got := checkAgainstPlain(t, data)
	q := got.Questions[0].Name
	for _, s := range []struct {
		what, name string
	}{
		{"CNAME owner", got.Answers[0].Name},
		{"CNAME target", got.Answers[0].Target},
		{"A owner", got.Answers[1].Name},
		{"NS owner", got.Authority[0].Name},
	} {
		if s.name != name || !sameBytes(s.name, q) {
			t.Errorf("%s %q does not share the question name's bytes", s.what, s.name)
		}
	}
	if sameBytes(got.Authority[0].Target, q) {
		t.Error("NS target ns1.experiment.domain shares the question name's bytes")
	}
	plain, err := decodePlain(data)
	if err != nil {
		t.Fatal(err)
	}
	if sameBytes(plain.Answers[0].Name, plain.Questions[0].Name) {
		t.Error("decodePlain reused the question name; it is no reference")
	}
}

// TestQuestionNameReuseNeedsQuestion checks that with QDCount = 0 a record
// named C0 0C still points at itself and fails with ErrBadPointer.
func TestQuestionNameReuseNeedsQuestion(t *testing.T) {
	data := []byte{0, 1, 0x84, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 203, 0, 113, 1}
	if _, err := Decode(data); err != ErrBadPointer {
		t.Errorf("Decode error %v, want ErrBadPointer", err)
	}
	checkAgainstPlain(t, data)
}

// TestQuestionNameReuseJumpBudget builds a question name that follows
// jumps compression pointers, with one A record named C0 0C. Following that
// pointer costs one more jump, so at the limit the record must still fail
// with ErrBadPointer, as decodeName fails it, and one below it must decode.
func TestQuestionNameReuseJumpBudget(t *testing.T) {
	for _, tc := range []struct {
		jumps int
		want  error
	}{{maxJumps, nil}, {maxJumps + 1, ErrBadPointer}} {
		data := make([]byte, 99, 128)
		copy(data, []byte{0, 1, 0x84, 0, 0, 1, 0, 1, 0, 0, 0, 0})
		// Two labels, 12..75 and 76..96, whose bytes hold a descending
		// chain of pointers; the pointer at 97 enters it and its last
		// pointer lands on the zero byte at 13.
		data[12], data[76] = 63, 20
		var chain []int
		for p := 94; p >= 14 && len(chain) < tc.jumps-1; p -= 2 {
			if p != 76 && p != 46 { // 46 is '.', which no label may hold
				chain = append(chain, p)
			}
		}
		from := 97
		for _, p := range append(chain, 13) {
			data[from], data[from+1] = 0xC0, byte(p)
			from = p
		}
		data = append(data, 0, 1, 0, 1)                                          // QTYPE, QCLASS
		data = append(data, 0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4) // A record
		_, _, jumps, err := decodeName(data, 12)
		if err != nil || jumps != tc.jumps {
			t.Fatalf("question name follows %d pointers (err %v), want %d", jumps, err, tc.jumps)
		}
		got, err := Decode(data)
		if err != tc.want {
			t.Errorf("question with %d jumps: Decode error %v, want %v", tc.jumps, err, tc.want)
		}
		if err == nil && !sameBytes(got.Answers[0].Name, got.Questions[0].Name) {
			t.Errorf("question with %d jumps: answer name not reused", tc.jumps)
		}
		checkAgainstPlain(t, data)
	}
}

// TestDecodeIntoReusesQuestionName checks the allocation the reuse saves: a
// warmed DecodeInto of a one-answer response allocates only the question
// name, where the plain path also allocates the answer's copy of it.
func TestDecodeIntoReusesQuestionName(t *testing.T) {
	q := NewQuery(9, "www.experiment.domain", TypeA)
	resp := NewResponse(q, RcodeNoError)
	resp.Answers = append(resp.Answers, RR{Name: "www.experiment.domain", Type: TypeA, TTL: 3600, Addr: wire.AddrFrom(203, 0, 113, 10)})
	data, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := DecodeInto(&m, data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeInto(&m, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("warmed DecodeInto of a one-answer response allocates %v times, want 1", allocs)
	}
}
