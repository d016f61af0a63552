package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	a, err := ParseAddr("114.114.114.114")
	if err != nil {
		t.Fatal(err)
	}
	if a != AddrFrom(114, 114, 114, 114) {
		t.Errorf("ParseAddr = %v", a)
	}
	if a.String() != "114.114.114.114" {
		t.Errorf("String = %q", a.String())
	}
	for _, bad := range []string{"", "1.2.3", "1.2.3.256", "a.b.c.d", "-1.2.3.4"} {
		if _, err := ParseAddr(bad); err == nil {
			t.Errorf("ParseAddr(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestAddrRoundTripUint32(t *testing.T) {
	f := func(v uint32) bool {
		return AddrFromUint32(v).Uint32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrSlash24(t *testing.T) {
	a := MustParseAddr("1.1.1.1")
	b := MustParseAddr("1.1.1.4")
	c := MustParseAddr("1.1.2.1")
	if !a.SameSlash24(b) {
		t.Error("1.1.1.1 and 1.1.1.4 should share a /24")
	}
	if a.SameSlash24(c) {
		t.Error("1.1.1.1 and 1.1.2.1 should not share a /24")
	}
	if a.Slash24() != MustParseAddr("1.1.1.0") {
		t.Errorf("Slash24 = %v", a.Slash24())
	}
}

func TestFlowCanonicalSymmetric(t *testing.T) {
	f := Flow{
		Proto: ProtoTCP,
		Src:   Endpoint{MustParseAddr("1.2.3.4"), 1234},
		Dst:   Endpoint{MustParseAddr("5.6.7.8"), 80},
	}
	if f.Canonical() != f.Reverse().Canonical() {
		t.Error("Canonical not symmetric")
	}
	if f.Reverse().Reverse() != f {
		t.Error("double Reverse should be identity")
	}
}

func TestFlowCanonicalProperty(t *testing.T) {
	f := func(a1, a2 uint32, p1, p2 uint16, proto uint8) bool {
		fl := Flow{
			Proto: IPProto(proto),
			Src:   Endpoint{AddrFromUint32(a1), p1},
			Dst:   Endpoint{AddrFromUint32(a2), p2},
		}
		return fl.Canonical() == fl.Reverse().Canonical()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{
		TOS: 0x10, ID: 0xBEEF, Flags: FlagDF, TTL: 64,
		Protocol: ProtoUDP,
		Src:      MustParseAddr("192.0.2.1"),
		Dst:      MustParseAddr("198.51.100.2"),
	}
	payload := []byte("hello, shadowing")
	raw, err := h.Serialize(payload)
	if err != nil {
		t.Fatal(err)
	}
	var got IPv4
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.TTL != 64 || got.Protocol != ProtoUDP || got.ID != 0xBEEF {
		t.Errorf("decoded header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload(), payload) {
		t.Errorf("payload mismatch: %q", got.Payload())
	}
	if int(got.TotalLen) != len(raw) {
		t.Errorf("TotalLen = %d, want %d", got.TotalLen, len(raw))
	}
}

func TestIPv4ChecksumValidation(t *testing.T) {
	h := IPv4{TTL: 10, Protocol: ProtoUDP, Src: AddrFrom(1, 2, 3, 4), Dst: AddrFrom(5, 6, 7, 8)}
	raw, err := h.Serialize([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	raw[12] ^= 0xFF // corrupt source address
	var got IPv4
	if err := got.DecodeFromBytes(raw); err != ErrBadChecksum {
		t.Errorf("corrupted packet decoded: err = %v, want ErrBadChecksum", err)
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	var h IPv4
	if err := h.DecodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Errorf("short: %v", err)
	}
	v6 := make([]byte, 40)
	v6[0] = 0x60
	if err := h.DecodeFromBytes(v6); err != ErrBadVersion {
		t.Errorf("v6: %v", err)
	}
}

func TestDecrementTTL(t *testing.T) {
	h := IPv4{TTL: 64, Protocol: ProtoUDP, Src: AddrFrom(10, 0, 0, 1), Dst: AddrFrom(10, 0, 0, 2)}
	raw, err := h.Serialize([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	for want := uint8(63); want > 0; want-- {
		ttl, err := DecrementTTL(raw)
		if err != nil {
			t.Fatal(err)
		}
		if ttl != want {
			t.Fatalf("TTL = %d, want %d", ttl, want)
		}
		// The incremental checksum must keep the header valid at every hop.
		var got IPv4
		if err := got.DecodeFromBytes(raw); err != nil {
			t.Fatalf("header invalid after decrement to %d: %v", want, err)
		}
	}
	if ttl, err := DecrementTTL(raw); err != nil || ttl != 0 {
		t.Fatalf("final decrement: ttl=%d err=%v", ttl, err)
	}
	if _, err := DecrementTTL(raw); err == nil {
		t.Error("decrementing TTL 0 should error")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	src, dst := AddrFrom(1, 1, 1, 1), AddrFrom(9, 9, 9, 9)
	u := UDP{SrcPort: 53533, DstPort: 53}
	payload := []byte("dns query bytes")
	raw, err := u.Serialize(src, dst, payload)
	if err != nil {
		t.Fatal(err)
	}
	var got UDP
	if err := got.DecodeFromBytes(raw, src, dst); err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 53533 || got.DstPort != 53 {
		t.Errorf("ports = %d,%d", got.SrcPort, got.DstPort)
	}
	if !bytes.Equal(got.Payload(), payload) {
		t.Errorf("payload = %q", got.Payload())
	}
	// Checksum must fail if payload corrupted.
	raw[len(raw)-1] ^= 0xFF
	if err := got.DecodeFromBytes(raw, src, dst); err != ErrBadChecksum {
		t.Errorf("corrupt UDP: err = %v, want ErrBadChecksum", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	src, dst := AddrFrom(10, 1, 1, 1), AddrFrom(172, 16, 0, 1)
	tc := TCP{SrcPort: 40000, DstPort: 443, Seq: 1000, Ack: 2000, Flags: TCPSyn | TCPAck, Window: 1024}
	payload := []byte("client hello")
	raw, err := tc.Serialize(src, dst, payload)
	if err != nil {
		t.Fatal(err)
	}
	var got TCP
	if err := got.DecodeFromBytes(raw, src, dst); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1000 || got.Ack != 2000 || got.Flags != TCPSyn|TCPAck {
		t.Errorf("decoded TCP mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload(), payload) {
		t.Errorf("payload = %q", got.Payload())
	}
	if got.FlagString() != "SYN|ACK" {
		t.Errorf("FlagString = %q", got.FlagString())
	}
}

func TestICMPTimeExceededRoundTrip(t *testing.T) {
	// Build an original UDP probe, then the Time Exceeded quoting it.
	src := Endpoint{AddrFrom(100, 64, 0, 1), 33434}
	dst := Endpoint{AddrFrom(8, 8, 8, 8), 53}
	probe, err := BuildUDP(src, dst, 3, 0x1234, []byte("probe payload longer than 8 bytes"))
	if err != nil {
		t.Fatal(err)
	}
	te := NewTimeExceeded(probe)
	raw, err := BuildICMP(AddrFrom(10, 0, 0, 254), src.Addr, 64, 1, te, te.Payload())
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.ICMP == nil || pkt.ICMP.Type != ICMPTimeExceeded {
		t.Fatalf("not a time exceeded: %+v", pkt)
	}
	quoted, err := pkt.ICMP.QuotedIPv4()
	if err != nil {
		t.Fatal(err)
	}
	if quoted.Src != src.Addr || quoted.Dst != dst.Addr || quoted.ID != 0x1234 {
		t.Errorf("quoted header mismatch: %+v", quoted)
	}
	if len(quoted.Payload()) != 8 {
		t.Errorf("quote should carry exactly 8 payload bytes, got %d", len(quoted.Payload()))
	}
}

func TestICMPQuoteOnlyForErrors(t *testing.T) {
	m := &ICMP{Type: ICMPEchoRequest}
	if _, err := m.QuotedIPv4(); err == nil {
		t.Error("echo request should not have a quoted packet")
	}
}

func TestParserDecodeReuse(t *testing.T) {
	var p Parser
	var pkt Packet
	udpRaw, _ := BuildUDP(Endpoint{AddrFrom(1, 1, 1, 1), 1}, Endpoint{AddrFrom(2, 2, 2, 2), 53}, 64, 1, []byte("a"))
	tcpRaw, _ := BuildTCP(Endpoint{AddrFrom(3, 3, 3, 3), 2}, Endpoint{AddrFrom(4, 4, 4, 4), 80}, 64, 2, TCPSyn, 0, 0, nil)
	if err := p.Decode(udpRaw, &pkt); err != nil {
		t.Fatal(err)
	}
	if pkt.UDP == nil || pkt.TCP != nil {
		t.Fatal("expected UDP layer")
	}
	if err := p.Decode(tcpRaw, &pkt); err != nil {
		t.Fatal(err)
	}
	if pkt.TCP == nil || pkt.UDP != nil {
		t.Fatal("expected TCP layer after reuse")
	}
	if pkt.Flow().Dst.Port != 80 {
		t.Errorf("flow dst port = %d", pkt.Flow().Dst.Port)
	}
}

func TestBuildRoundTripProperty(t *testing.T) {
	f := func(srcA, dstA uint32, srcP, dstP uint16, ttl uint8, payload []byte) bool {
		if ttl == 0 {
			ttl = 1
		}
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		src := Endpoint{AddrFromUint32(srcA), srcP}
		dst := Endpoint{AddrFromUint32(dstA), dstP}
		raw, err := BuildUDP(src, dst, ttl, 7, payload)
		if err != nil {
			return false
		}
		pkt, err := Decode(raw)
		if err != nil {
			return false
		}
		return pkt.IP.Src == src.Addr && pkt.IP.Dst == dst.Addr &&
			pkt.UDP.SrcPort == srcP && pkt.UDP.DstPort == dstP &&
			bytes.Equal(pkt.TransportPayload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChecksumRFC1071Vector(t *testing.T) {
	// Classic example from RFC 1071 section 3.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Errorf("Checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestProtoString(t *testing.T) {
	if ProtoUDP.String() != "UDP" || ProtoTCP.String() != "TCP" || ProtoICMP.String() != "ICMP" {
		t.Error("proto names wrong")
	}
	if IPProto(99).String() != "proto(99)" {
		t.Errorf("unknown proto = %q", IPProto(99).String())
	}
}

func BenchmarkParserDecode(b *testing.B) {
	raw, _ := BuildUDP(Endpoint{AddrFrom(1, 1, 1, 1), 5353}, Endpoint{AddrFrom(8, 8, 8, 8), 53}, 64, 1, bytes.Repeat([]byte("q"), 64))
	var p Parser
	var pkt Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Decode(raw, &pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrementTTL(b *testing.B) {
	raw, _ := BuildUDP(Endpoint{AddrFrom(1, 1, 1, 1), 5353}, Endpoint{AddrFrom(8, 8, 8, 8), 53}, 255, 1, []byte("x"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if raw[8] <= 1 {
			raw[8] = 255
			// restore checksum validity by full reserialize
			var h IPv4
			h.TTL = 255
			h.Protocol = ProtoUDP
			h.Src, h.Dst = AddrFrom(1, 1, 1, 1), AddrFrom(8, 8, 8, 8)
			nraw, _ := h.Serialize(raw[IPv4HeaderLen:])
			copy(raw, nraw)
		}
		if _, err := DecrementTTL(raw); err != nil {
			b.Fatal(err)
		}
	}
}
