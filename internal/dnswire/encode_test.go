package dnswire

import (
	"encoding/hex"
	"testing"

	"shadowmeter/internal/wire"
)

// compressionCases covers every path through the encoder's compression
// table: repeated names, shared suffixes, CNAME/NS/SOA targets, names that
// differ only in case or a trailing dot, and more suffixes than one small
// table holds.
func compressionCases() []struct {
	name string
	msg  *Message
} {
	a := wire.AddrFrom
	repeated := NewResponse(NewQuery(0x0101, "www.example.com", TypeA), RcodeNoError)
	repeated.Answers = append(repeated.Answers,
		RR{Name: "www.example.com", Type: TypeA, TTL: 60, Addr: a(192, 0, 2, 1)},
		RR{Name: "www.example.com", Type: TypeA, TTL: 60, Addr: a(192, 0, 2, 2)},
		RR{Name: "www.example.com", Type: TypeA, TTL: 60, Addr: a(192, 0, 2, 3)},
	)
	shared := NewQuery(0x0202, "a.b.example.com", TypeANY)
	shared.Questions = append(shared.Questions, Question{Name: "x.b.example.com", Type: TypeA, Class: ClassIN})
	shared.Additional = append(shared.Additional,
		RR{Name: "example.com", Type: TypeA, TTL: 1, Addr: a(198, 51, 100, 1)},
		RR{Name: "com", Type: TypeA, TTL: 2, Addr: a(198, 51, 100, 2)},
		RR{Name: "other.org", Type: TypeA, TTL: 3, Addr: a(198, 51, 100, 3)},
		RR{Name: "deep.other.org", Type: TypeA, TTL: 4, Addr: a(198, 51, 100, 4)},
	)
	targets := NewResponse(NewQuery(7, "www.example.com", TypeA), RcodeNoError)
	targets.Header.AA = true
	targets.Answers = append(targets.Answers,
		RR{Name: "www.example.com", Type: TypeCNAME, TTL: 3600, Target: "edge.cdn.example.net"},
		RR{Name: "edge.cdn.example.net", Type: TypeCNAME, TTL: 300, Target: "pop1.edge.cdn.example.net"},
		RR{Name: "pop1.edge.cdn.example.net", Type: TypeA, TTL: 60, Addr: a(93, 184, 216, 34)},
	)
	targets.Authority = append(targets.Authority,
		RR{Name: "example.com", Type: TypeNS, TTL: 86400, Target: "ns1.example.com"},
		RR{Name: "example.com", Type: TypeNS, TTL: 86400, Target: "ns2.example.net"},
	)
	targets.Additional = append(targets.Additional,
		RR{Name: "ns1.example.com", Type: TypeA, TTL: 86400, Addr: a(192, 0, 2, 53)},
	)
	mixed := NewResponse(NewQuery(0x0303, "WwW.ExAmPlE.CoM", TypeA), RcodeNoError)
	mixed.Answers = append(mixed.Answers,
		RR{Name: "www.example.com.", Type: TypeCNAME, TTL: 10, Target: "EDGE.Example.com."},
		RR{Name: "Edge.EXAMPLE.com", Type: TypeA, TTL: 10, Addr: a(203, 0, 113, 7)},
	)
	txtSOA := NewResponse(NewQuery(0x0404, "g6d8jjkut5obc4-9982.www.experiment.domain", TypeTXT), RcodeNXDomain)
	txtSOA.Answers = append(txtSOA.Answers,
		RR{Name: "g6d8jjkut5obc4-9982.www.experiment.domain", Type: TypeTXT, TTL: 30, Text: "v=shadow1"},
	)
	txtSOA.Authority = append(txtSOA.Authority,
		RR{Name: "experiment.domain", Type: TypeSOA, TTL: 3600, Target: "ns.experiment.domain"},
	)
	referral := NewResponse(NewQuery(0x0505, "a.b.example.com", TypeA), RcodeNoError)
	referral.Authority = append(referral.Authority,
		RR{Name: "example.com", Type: TypeNS, TTL: 172800, Target: "ns1.example.com"},
	)
	root := NewQuery(0x0606, ".", TypeNS)
	root.Answers = append(root.Answers, RR{Name: "", Type: TypeNS, TTL: 5, Target: "a.root-servers.net."})
	many := NewResponse(NewQuery(0x0707, "l0.l1.l2.l3.l4.l5.l6.l7.l8.l9.zone", TypeA), RcodeNoError)
	for i, n := range []string{"l9.zone", "m.l5.l6.l7.l8.l9.zone", "n.o.p.q.r.s.t.zone", "s.t.zone", "u.v.w.x.y.z"} {
		many.Answers = append(many.Answers, RR{Name: n, Type: TypeA, TTL: uint32(i), Addr: a(10, 0, 0, byte(i))})
	}
	return []struct {
		name string
		msg  *Message
	}{
		{"repeated-names", repeated},
		{"shared-suffixes", shared},
		{"cname-ns-targets", targets},
		{"case-mixed", mixed},
		{"txt-soa", txtSOA},
		{"referral", referral},
		{"root-and-trailing-dots", root},
		{"many-suffixes", many},
	}
}

// compressionGolden is each compressionCases message as the earlier
// map-based compression table encoded it. The slice-based table must
// reproduce it byte for byte: any change in which suffix a pointer names
// would change every simulated DNS packet.
var compressionGolden = map[string]string{
	"repeated-names":         "01018180000100030000000003777777076578616d706c6503636f6d0000010001c00c000100010000003c0004c0000201c00c000100010000003c0004c0000202c00c000100010000003c0004c0000203",
	"shared-suffixes":        "02020100000200000000000401610162076578616d706c6503636f6d0000ff00010178c00e00010001c01000010001000000010004c6336401c01800010001000000020004c6336402056f74686572036f72670000010001000000030004c63364030464656570c04900010001000000040004c6336404",
	"cname-ns-targets":       "00078580000100030002000103777777076578616d706c6503636f6d0000010001c00c0005000100000e10001604656467650363646e076578616d706c65036e657400c02d000500010000012c000704706f7031c02dc04f000100010000003c00045db8d822c01000020001000151800006036e7331c010c01000020001000151800006036e7332c036c07200010001000151800004c0000235",
	"case-mixed":             "03038180000100020000000003777777076578616d706c6503636f6d0000010001c00c000500010000000a00070465646765c010c02d000100010000000a0004cb007107",
	"txt-soa":                "04048183000100010001000013673664386a6a6b7574356f6263342d39393832037777770a6578706572696d656e7406646f6d61696e0000100001c00c001000010000001e000a09763d736861646f7731c0240006000100000e100026026e73c0240a686f73746d6173746572c05d00000e1000000e1000000e1000000e1000000e10",
	"referral":               "05058180000100000001000001610162076578616d706c6503636f6d0000010001c010000200010002a3000006036e7331c010",
	"root-and-trailing-dots": "0606010000010001000000000000020001000002000100000005001401610c726f6f742d73657276657273036e657400",
	"many-suffixes":          "070781800001000500000000026c30026c31026c32026c33026c34026c35026c36026c37026c38026c39047a6f6e650000010001c027000100010000000000040a000000016dc01b000100010000000100040a000001016e016f01700171017201730174c02a000100010000000200040a000002c060000100010000000300040a00000301750176017701780179017a00000100010000000400040a000004",
}

func TestEncodeCompressionBytes(t *testing.T) {
	// One encoder across every case also checks that AppendEncode resets
	// the table: a suffix left from the previous message would turn into a
	// pointer to bytes the new message does not have.
	var enc Encoder
	for _, c := range compressionCases() {
		want := compressionGolden[c.name]
		got, err := c.msg.Encode()
		if err != nil {
			t.Fatalf("%s: Encode: %v", c.name, err)
		}
		if h := hex.EncodeToString(got); h != want {
			t.Errorf("%s: Encode =\n%s\nwant\n%s", c.name, h, want)
		}
		got, err = c.msg.AppendEncode(&enc)
		if err != nil {
			t.Fatalf("%s: AppendEncode: %v", c.name, err)
		}
		if h := hex.EncodeToString(got); h != want {
			t.Errorf("%s: AppendEncode =\n%s\nwant\n%s", c.name, h, want)
		}
	}
}

// warmAnswer is the honeypot's typical wildcard answer: a query name and
// three A records under it.
func warmAnswer() *Message {
	name := "g6d8jjkut5obc4-9982.www.experiment.domain"
	m := NewResponse(NewQuery(0x4242, name, TypeA), RcodeNoError)
	m.Header.AA = true
	for i := byte(1); i <= 3; i++ {
		m.Answers = append(m.Answers, RR{Name: name, Type: TypeA, TTL: 3600, Addr: wire.AddrFrom(203, 0, 113, i)})
	}
	m.Authority = append(m.Authority, RR{Name: "experiment.domain", Type: TypeNS, TTL: 3600, Target: "ns1.experiment.domain"})
	return m
}

func TestAppendEncodeWarmAllocsZero(t *testing.T) {
	m := warmAnswer()
	var enc Encoder
	if _, err := m.AppendEncode(&enc); err != nil {
		t.Fatal(err)
	}
	suffixes := len(enc.names)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.AppendEncode(&enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed AppendEncode allocates %v times per message, want 0", allocs)
	}
	// The table must restart with each message, not grow across them.
	if len(enc.names) != suffixes {
		t.Errorf("compression table holds %d suffixes after 101 encodes of one message, want %d", len(enc.names), suffixes)
	}
}

// BenchmarkAppendEncode is a warmed scratch encode of the honeypot's
// wildcard answer; scripts/check.sh gates it at 0 allocs/op.
func BenchmarkAppendEncode(b *testing.B) {
	m := warmAnswer()
	var enc Encoder
	if _, err := m.AppendEncode(&enc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AppendEncode(&enc); err != nil {
			b.Fatal(err)
		}
	}
}
