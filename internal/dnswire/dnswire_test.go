package dnswire

import (
	"strings"
	"testing"
	"testing/quick"

	"shadowmeter/internal/wire"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0xABCD, "g6d8jjkut5obc4-9982.www.experiment.domain", TypeA)
	data, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 0xABCD || got.Header.QR || !got.Header.RD {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	if got.QName() != "g6d8jjkut5obc4-9982.www.experiment.domain" {
		t.Errorf("QName = %q", got.QName())
	}
	if got.QType() != TypeA {
		t.Errorf("QType = %d", got.QType())
	}
}

func TestResponseRoundTrip(t *testing.T) {
	q := NewQuery(7, "www.example.com", TypeA)
	resp := NewResponse(q, RcodeNoError)
	resp.Header.AA = true
	resp.Answers = append(resp.Answers,
		RR{Name: "www.example.com", Type: TypeCNAME, TTL: 3600, Target: "edge.example.com"},
		RR{Name: "edge.example.com", Type: TypeA, TTL: 3600, Addr: wire.AddrFrom(93, 184, 216, 34)},
	)
	resp.Authority = append(resp.Authority,
		RR{Name: "example.com", Type: TypeNS, TTL: 86400, Target: "ns1.example.com"},
	)
	resp.Additional = append(resp.Additional,
		RR{Name: "ns1.example.com", Type: TypeA, TTL: 86400, Addr: wire.AddrFrom(192, 0, 2, 53)},
	)
	data, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Header.QR || !got.Header.AA || got.Header.ID != 7 {
		t.Errorf("header: %+v", got.Header)
	}
	if len(got.Answers) != 2 || len(got.Authority) != 1 || len(got.Additional) != 1 {
		t.Fatalf("section sizes: %d/%d/%d", len(got.Answers), len(got.Authority), len(got.Additional))
	}
	if got.Answers[0].Type != TypeCNAME || got.Answers[0].Target != "edge.example.com" {
		t.Errorf("CNAME = %+v", got.Answers[0])
	}
	if got.Answers[1].Addr != wire.AddrFrom(93, 184, 216, 34) {
		t.Errorf("A = %+v", got.Answers[1])
	}
	if got.Authority[0].Target != "ns1.example.com" {
		t.Errorf("NS = %+v", got.Authority[0])
	}
}

func TestNameCompressionSavesSpace(t *testing.T) {
	// Repeated long suffixes should be pointer-compressed.
	q := NewQuery(1, "a.very.long.experiment.domain.example", TypeA)
	resp := NewResponse(q, RcodeNoError)
	for i := 0; i < 5; i++ {
		resp.Answers = append(resp.Answers, RR{
			Name: "a.very.long.experiment.domain.example", Type: TypeA, TTL: 60,
			Addr: wire.AddrFrom(10, 0, 0, byte(i+1)),
		})
	}
	data, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	nameLen := len("a.very.long.experiment.domain.example") + 2
	uncompressed := 12 + nameLen + 4 + 5*(nameLen+10+4)
	if len(data) >= uncompressed {
		t.Errorf("no compression: %d >= %d", len(data), uncompressed)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range got.Answers {
		if a.Name != "a.very.long.experiment.domain.example" {
			t.Errorf("answer %d name = %q", i, a.Name)
		}
	}
}

func TestTXTRoundTrip(t *testing.T) {
	q := NewQuery(3, "probe.example", TypeTXT)
	resp := NewResponse(q, RcodeNoError)
	resp.Answers = append(resp.Answers, RR{Name: "probe.example", Type: TypeTXT, TTL: 60, Text: "shadowmeter-experiment"})
	data, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Text != "shadowmeter-experiment" {
		t.Errorf("TXT = %q", got.Answers[0].Text)
	}
}

func TestSOANegativeResponse(t *testing.T) {
	q := NewQuery(4, "nonexistent.experiment.domain", TypeA)
	resp := NewResponse(q, RcodeNXDomain)
	resp.Authority = append(resp.Authority, RR{Name: "experiment.domain", Type: TypeSOA, TTL: 300, Target: "ns.experiment.domain"})
	data, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Rcode != RcodeNXDomain {
		t.Errorf("rcode = %d", got.Header.Rcode)
	}
	if len(got.Authority) != 1 || got.Authority[0].Type != TypeSOA || got.Authority[0].Target != "ns.experiment.domain" {
		t.Errorf("SOA = %+v", got.Authority)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err != ErrTruncated {
		t.Errorf("nil: %v", err)
	}
	if _, err := Decode(make([]byte, 5)); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	// Header claiming one question but no question bytes.
	hdr := make([]byte, 12)
	hdr[5] = 1 // QDCount = 1
	if _, err := Decode(hdr); err == nil {
		t.Error("truncated question should fail")
	}
}

func TestCompressionPointerLoop(t *testing.T) {
	// Craft a message with a self-referencing pointer in the question name.
	data := make([]byte, 16)
	data[5] = 1 // QDCount
	data[12] = 0xC0
	data[13] = 12 // pointer to itself
	if _, err := Decode(data); err == nil {
		t.Error("pointer loop should be rejected")
	}
}

func TestForwardPointerRejected(t *testing.T) {
	data := make([]byte, 20)
	data[5] = 1
	data[12] = 0xC0
	data[13] = 14 // forward pointer
	if _, err := Decode(data); err == nil {
		t.Error("forward pointer should be rejected")
	}
}

func TestNameLimits(t *testing.T) {
	longLabel := strings.Repeat("a", 64)
	q := NewQuery(1, longLabel+".example", TypeA)
	if _, err := q.Encode(); err != ErrLabelTooLong {
		t.Errorf("long label: %v", err)
	}
	longName := strings.Repeat("abcdefg.", 40) // 320 chars
	q = NewQuery(1, longName+"example", TypeA)
	if _, err := q.Encode(); err != ErrNameTooLong {
		t.Errorf("long name: %v", err)
	}
	q = NewQuery(1, "a..b", TypeA)
	if _, err := q.Encode(); err != ErrBadName {
		t.Errorf("empty label: %v", err)
	}
}

func TestRootName(t *testing.T) {
	q := NewQuery(1, ".", TypeNS)
	data, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.QName() != "" {
		t.Errorf("root QName = %q", got.QName())
	}
}

func TestCaseInsensitiveDecode(t *testing.T) {
	q := NewQuery(1, "WwW.ExAmPlE.CoM", TypeA)
	data, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.QName() != "www.example.com" {
		t.Errorf("QName = %q, want lowercase", got.QName())
	}
}

func TestCanonical(t *testing.T) {
	cases := map[string]string{
		"Example.COM.": "example.com",
		"example.com":  "example.com",
		".":            "",
		"":             "",
	}
	for in, want := range cases {
		if got := Canonical(in); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		name, zone string
		want       bool
	}{
		{"a.experiment.domain", "experiment.domain", true},
		{"experiment.domain", "experiment.domain", true},
		{"notexperiment.domain", "experiment.domain", false},
		{"a.b.c.experiment.domain", "experiment.domain", true},
		{"experiment.domain", "a.experiment.domain", false},
		{"anything", "", true},
	}
	for _, tc := range cases {
		if got := IsSubdomain(tc.name, tc.zone); got != tc.want {
			t.Errorf("IsSubdomain(%q, %q) = %v", tc.name, tc.zone, got)
		}
	}
}

func TestFirstLabelParent(t *testing.T) {
	if FirstLabel("id123.www.experiment.domain") != "id123" {
		t.Error("FirstLabel")
	}
	if Parent("id123.www.experiment.domain") != "www.experiment.domain" {
		t.Error("Parent")
	}
	if Parent("tld") != "" {
		t.Error("Parent of single label")
	}
}

func TestQueryRoundTripProperty(t *testing.T) {
	letters := "abcdefghijklmnopqrstuvwxyz0123456789"
	f := func(id uint16, seed int64) bool {
		// Build a pseudo-random valid name from the seed.
		n := int(seed%3) + 1
		var labels []string
		s := uint64(seed)
		for i := 0; i < n; i++ {
			l := int(s%20) + 1
			s = s*6364136223846793005 + 1442695040888963407
			var lb strings.Builder
			for j := 0; j < l; j++ {
				lb.WriteByte(letters[int(s%uint64(len(letters)))])
				s = s*6364136223846793005 + 1442695040888963407
			}
			labels = append(labels, lb.String())
		}
		name := strings.Join(labels, ".")
		q := NewQuery(id, name, TypeA)
		data, err := q.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return got.Header.ID == id && got.QName() == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := NewQuery(uint16(i), "g6d8jjkut5obc4-9982.www.experiment.domain", TypeA)
		if _, err := q.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeResponse(b *testing.B) {
	q := NewQuery(9, "www.experiment.domain", TypeA)
	resp := NewResponse(q, RcodeNoError)
	resp.Answers = append(resp.Answers, RR{Name: "www.experiment.domain", Type: TypeA, TTL: 3600, Addr: wire.AddrFrom(203, 0, 113, 10)})
	data, _ := resp.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFirstA reads the first A answer past a CNAME, ignores A records
// outside the answer section, and allocates nothing.
func TestFirstA(t *testing.T) {
	q := NewQuery(9, "www.experiment.domain", TypeA)
	resp := NewResponse(q, RcodeNoError)
	resp.Answers = append(resp.Answers,
		RR{Name: "www.experiment.domain", Type: TypeCNAME, TTL: 60, Target: "web.experiment.domain"},
		RR{Name: "web.experiment.domain", Type: TypeA, TTL: 60, Addr: wire.AddrFrom(203, 0, 113, 10)},
		RR{Name: "web.experiment.domain", Type: TypeA, TTL: 60, Addr: wire.AddrFrom(203, 0, 113, 11)})
	data, err := resp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var addr wire.Addr
	var ok bool
	if allocs := testing.AllocsPerRun(100, func() { addr, ok = FirstA(data) }); allocs != 0 {
		t.Errorf("FirstA allocates %v times, want 0", allocs)
	}
	if !ok || addr != wire.AddrFrom(203, 0, 113, 10) {
		t.Errorf("FirstA = %v, %v; want 203.0.113.10", addr, ok)
	}

	glue := NewResponse(q, RcodeNoError)
	glue.Additional = append(glue.Additional, RR{Name: "ns1.experiment.domain", Type: TypeA, TTL: 60, Addr: wire.AddrFrom(192, 0, 2, 1)})
	if data, err = glue.Encode(); err != nil {
		t.Fatal(err)
	}
	if addr, ok = FirstA(data); ok {
		t.Errorf("FirstA on a reply with only an additional A record = %v, want none", addr)
	}
	if _, ok = FirstA(data[:len(data)-1]); ok {
		t.Error("FirstA accepted a truncated reply")
	}
}
