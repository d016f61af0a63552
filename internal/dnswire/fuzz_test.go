package dnswire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"shadowmeter/internal/wire"
)

// FuzzDecode feeds arbitrary bytes to the full decoder, as the realnet
// honeypot does with every datagram a scanner sends. Decode must never
// panic. Every message it accepts that Encode can express must survive
// encode → decode unchanged (up to Encode's one documented rewrite, a zero
// record class written as IN), and re-encoding that result must give the
// same bytes. Encode may refuse only what it cannot express: record types
// it does not serialize, SOA records (whose generated hostmaster name can
// overflow), and non-ASCII names that case folding lengthened. Decode must
// also agree, error for error and field for field, with decodePlain, which
// never reuses the question name for a C0 0C pointer. FirstA must succeed
// exactly when DecodeInto succeeds and finds an A answer, with the same
// address.
//
//	go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/dnswire
func FuzzDecode(f *testing.F) {
	for _, c := range compressionCases() {
		b, err := c.msg.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	q, _ := NewQuery(0xABCD, "g6d8jjkut5obc4-9982.www.experiment.domain", TypeA).Encode()
	f.Add(q)
	txt := NewResponse(NewQuery(3, "probe.example", TypeTXT), RcodeNoError)
	txt.Answers = append(txt.Answers, RR{Name: "probe.example", Type: TypeTXT, TTL: 60, Text: "shadowmeter-experiment"})
	b, _ := txt.Encode()
	f.Add(b)

	// Compression-pointer loops: a name pointing at itself, a forward
	// pointer, and two names pointing at each other.
	self := make([]byte, 16)
	self[5], self[12], self[13] = 1, 0xC0, 12
	fwd := make([]byte, 20)
	fwd[5], fwd[12], fwd[13] = 1, 0xC0, 14
	mutual := []byte{0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0xC0, 18, 0, 1, 0, 1, 0xC0, 12, 0, 1, 0, 1}
	f.Add(self)
	f.Add(fwd)
	f.Add(mutual)

	// Over-long labels and names in the style of DNS tunneling: a 64-octet
	// label, and five 63-octet high-entropy labels (a 319-octet name).
	long := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 64}
	long = append(long, bytes.Repeat([]byte("a"), 64)...)
	long = append(long, 0, 0, 1, 0, 1)
	f.Add(long)
	tunnel := []byte{0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for i := 0; i < 5; i++ {
		tunnel = append(tunnel, 63)
		tunnel = append(tunnel, strings.Repeat("x9q4zk7m2v", 7)[i:i+63]...)
	}
	tunnel = append(tunnel, 0, 0, 16, 0, 1)
	f.Add(tunnel)
	f.Add(make([]byte, 12))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkFirstA(t, data)
		m := checkAgainstPlain(t, data)
		if m == nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			if expressible(m) {
				t.Fatalf("Encode refused a decoded message it can express: %v\n%+v", err, m)
			}
			return
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding %x: %v", enc, err)
		}
		want := withINClass(m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("encode → decode changed the message:\n got %+v\nwant %+v", got, want)
		}
		again, err := got.Encode()
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable: %x, %v; first encoding %x", again, err, enc)
		}
	})
}

// checkFirstA holds FirstA to DecodeInto's first A answer on data.
func checkFirstA(t *testing.T, data []byte) {
	t.Helper()
	var m Message
	var want wire.Addr
	wantOK := false
	if DecodeInto(&m, data) == nil {
		for _, a := range m.Answers {
			if a.Type == TypeA {
				want, wantOK = a.Addr, true
				break
			}
		}
	}
	if got, ok := FirstA(data); ok != wantOK || got != want {
		t.Fatalf("FirstA(%x) = %v, %v; DecodeInto's first A answer is %v, %v", data, got, ok, want, wantOK)
	}
}

// expressible reports whether Encode must accept m: every record is of a
// type Encode writes without generating a name, and every name is ASCII,
// so the decoder's length limits are Encode's.
func expressible(m *Message) bool {
	names := make([]string, 0, len(m.Questions))
	for _, q := range m.Questions {
		names = append(names, q.Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, r := range sec {
			switch r.Type {
			case TypeA, TypeTXT:
			case TypeNS, TypeCNAME:
				names = append(names, r.Target)
			default:
				return false
			}
			names = append(names, r.Name)
		}
	}
	for _, n := range names {
		for i := 0; i < len(n); i++ {
			if n[i] >= 0x80 {
				return false
			}
		}
	}
	return true
}

// withINClass is m with every zero record class set to IN, as Encode
// writes it.
func withINClass(m *Message) *Message {
	out := *m
	for _, sec := range []*[]RR{&out.Answers, &out.Authority, &out.Additional} {
		if *sec == nil {
			continue
		}
		rrs := append([]RR(nil), *sec...)
		for i := range rrs {
			if rrs[i].Class == 0 {
				rrs[i].Class = ClassIN
			}
		}
		*sec = rrs
	}
	return &out
}

// TestDecodeRejectsDotInLabel pins FuzzDecode's first finding
// (testdata/fuzz/FuzzDecode/5052063fe9cf82ab): a label holding a '.' byte
// decoded to a name that re-encoded with different label boundaries. Both
// the full decoder and the sniff fast path must now reject it.
func TestDecodeRejectsDotInLabel(t *testing.T) {
	for _, label := range []string{".a", "a.", "a.b"} {
		data := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, byte(len(label))}
		data = append(data, label...)
		data = append(data, 3, 'c', 'o', 'm', 0, 0, 1, 0, 1)
		if _, err := Decode(data); err != ErrBadName {
			t.Errorf("Decode(label %q) error = %v, want ErrBadName", label, err)
		}
		if name, ok := QueryNameFromBytes(data); ok {
			t.Errorf("QueryNameFromBytes(label %q) = %q, want rejection", label, name)
		}
	}
}

// TestEncodeNameLengthLimit checks Encode against the decoder's limit: a
// 253-octet presentation name is 255 octets on the wire, the most RFC 1035
// allows, and one octet more must be refused rather than encoded into a
// message Decode rejects.
func TestEncodeNameLengthLimit(t *testing.T) {
	name := strings.Repeat(strings.Repeat("a", 62)+".", 4) + "a" // 253 octets
	data, err := NewQuery(1, name, TypeA).Encode()
	if err != nil {
		t.Fatalf("253-octet name: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("253-octet name does not decode: %v", err)
	}
	if got.QName() != name {
		t.Fatalf("253-octet name decodes to %q", got.QName())
	}
	if _, err := NewQuery(1, name+"a", TypeA).Encode(); err != ErrNameTooLong {
		t.Errorf("254-octet name: err = %v, want ErrNameTooLong", err)
	}
}

// FuzzCanonical checks Canonical's word-at-a-time fast path against its
// definition for any string. The seeds put each byte on either side of the
// 'A'..'Z' and 'a'..'z' ranges, DEL and the first non-ASCII byte at every
// offset of the first two 8-byte words, with and without trailing dots.
//
//	go test -run '^$' -fuzz FuzzCanonical -fuzztime 10s ./internal/dnswire
func FuzzCanonical(f *testing.F) {
	const base = "abcdefghijklmnopq"
	for _, c := range []byte{'@', 'A', 'Z', '[', '`', 'a', 'z', '{', 0x7F, 0x80} {
		for i := 0; i <= 16; i++ {
			s := base[:i] + string([]byte{c}) + base[i:]
			for _, dots := range []string{"", ".", ".."} {
				f.Add(s[:i+1] + dots)
				f.Add(s + dots)
			}
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Canonical(s), strings.ToLower(strings.TrimSuffix(s, ".")); got != want {
			t.Fatalf("Canonical(%q) = %q, want %q", s, got, want)
		}
	})
}

// TestCanonicalAllocsZero checks that an already-canonical name, the
// common case, comes back without a copy.
func TestCanonicalAllocsZero(t *testing.T) {
	name := "g6d8jjkut5obc4-9982.www.experiment.domain."
	var got string
	allocs := testing.AllocsPerRun(100, func() { got = Canonical(name) })
	if allocs != 0 {
		t.Errorf("Canonical(%q) allocates %v times, want 0", name, allocs)
	}
	if got != name[:len(name)-1] {
		t.Errorf("Canonical(%q) = %q", name, got)
	}
}

// FuzzEncodeQuery holds the exactly sized query encoder decoys use to the
// Message-based encoder it replaces: the same bytes or the same error for
// any ID, name and type, names the encoder refuses included.
func FuzzEncodeQuery(f *testing.F) {
	f.Add(uint16(0xABCD), "g6d8jjkut5obc4-9982.www.experiment.domain", TypeA)
	f.Add(uint16(1), "MiXeD.Example.COM.", TypeAAAA)
	f.Add(uint16(2), "", TypeANY)
	f.Add(uint16(3), ".", TypeNS)
	f.Add(uint16(4), "a..b", TypeA)
	f.Add(uint16(5), "a..", TypeA)
	f.Add(uint16(6), strings.Repeat("x", 64)+".example", TypeA)
	f.Add(uint16(7), strings.Repeat("abcdefghi.", 26), TypeA)
	f.Add(uint16(8), "\xc3\x89cole.example", TypeTXT)
	f.Fuzz(func(t *testing.T, id uint16, name string, qtype uint16) {
		got, gotErr := EncodeQuery(id, name, qtype)
		want, wantErr := NewQuery(id, name, qtype).Encode()
		if gotErr != wantErr || !bytes.Equal(got, want) {
			t.Fatalf("EncodeQuery(%#x, %q, %d) = %x, %v; want %x, %v", id, name, qtype, got, gotErr, want, wantErr)
		}
		if len(got) != cap(got) {
			t.Fatalf("EncodeQuery(%q): len %d, cap %d; the buffer should be exact", name, len(got), cap(got))
		}
	})
}
