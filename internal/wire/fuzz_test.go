package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// FuzzParserDecode feeds arbitrary bytes to the per-hop decode path. Decode
// must never panic. Whenever the IPv4 decoder accepts a packet with TTL
// above zero, DecrementTTL (the RFC 1624 incremental update every router
// hop runs) must leave a header that still decodes, with a valid checksum,
// a TTL one lower and every other byte untouched; a packet the full parser
// accepted must stay acceptable, since no transport checksum covers TTL.
// QuotedIPv4Into, which traceroute runs on every ICMP error, must read
// exactly the quoted header fields from an accepted ICMP message and from
// the input taken as a raw quote, and refuse only what carries none.
//
//	go test -run '^$' -fuzz FuzzParserDecode -fuzztime 10s ./internal/wire
func FuzzParserDecode(f *testing.F) {
	udp, _ := BuildUDP(Endpoint{AddrFrom(1, 1, 1, 1), 5353}, Endpoint{AddrFrom(8, 8, 8, 8), 53}, 64, 1, []byte("payload"))
	tcp, _ := BuildTCP(Endpoint{AddrFrom(3, 3, 3, 3), 2}, Endpoint{AddrFrom(4, 4, 4, 4), 80}, 64, 2, TCPSyn, 0, 0, nil)
	icmp, _ := BuildICMP(AddrFrom(9, 9, 9, 9), AddrFrom(1, 1, 1, 1), 64, 0, &ICMP{Type: ICMPTimeExceeded}, udp[:TimeExceededQuoteLen])
	lastHop, _ := BuildUDP(Endpoint{AddrFrom(10, 0, 0, 1), 1}, Endpoint{AddrFrom(10, 0, 0, 2), 2}, 1, 3, nil)
	corrupt := append([]byte(nil), udp...)
	corrupt[12] ^= 0xFF
	v6 := make([]byte, 40)
	v6[0] = 0x60
	for _, seed := range [][]byte{udp, tcp, icmp, lastHop, corrupt, v6, udp[:IPv4HeaderLen-1], nil} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Parser
		var pkt Packet
		parsed := p.Decode(data, &pkt) == nil
		if parsed && pkt.ICMP != nil {
			checkQuoted(t, pkt.ICMP)
		}
		checkQuoted(t, &ICMP{Type: ICMPTimeExceeded, payload: data})

		var h IPv4
		if h.DecodeFromBytes(data) != nil || h.TTL == 0 {
			return
		}
		hop := append([]byte(nil), data...)
		ttl, err := DecrementTTL(hop)
		if err != nil {
			t.Fatalf("DecrementTTL refused a decodable header with TTL %d: %v", h.TTL, err)
		}
		if ttl != h.TTL-1 || hop[8] != ttl {
			t.Fatalf("TTL %d decremented to %d (byte %d), want %d", h.TTL, ttl, hop[8], h.TTL-1)
		}
		ihl := int(data[0]&0x0F) * 4
		if cs := Checksum(hop[:ihl]); cs != 0 {
			t.Fatalf("header checksum invalid after decrement: residue %#04x", cs)
		}
		var got IPv4
		if err := got.DecodeFromBytes(hop); err != nil {
			t.Fatalf("decremented packet no longer decodes: %v", err)
		}
		if got.TTL != ttl {
			t.Fatalf("decremented packet decodes with TTL %d, want %d", got.TTL, ttl)
		}
		if !bytes.Equal(hop[:8], data[:8]) || hop[9] != data[9] || !bytes.Equal(hop[12:], data[12:]) {
			t.Fatal("DecrementTTL changed bytes other than the TTL and header checksum")
		}
		if parsed {
			if err := p.Decode(hop, &pkt); err != nil {
				t.Fatalf("parser accepted the packet but not its next hop: %v", err)
			}
		}
	})
}

// checkQuoted holds m.QuotedIPv4Into to the header fields read straight
// from m's payload, and QuotedIPv4 to it.
func checkQuoted(t *testing.T, m *ICMP) {
	t.Helper()
	var q IPv4
	err := m.QuotedIPv4Into(&q)
	quote := m.Payload()
	ihl := 0
	if len(quote) > 0 {
		ihl = int(quote[0]&0x0F) * 4
	}
	want := (m.Type == ICMPTimeExceeded || m.Type == ICMPDestUnreach) &&
		len(quote) >= IPv4HeaderLen && quote[0]>>4 == 4 && ihl >= IPv4HeaderLen && len(quote) >= ihl
	if (err == nil) != want {
		t.Fatalf("QuotedIPv4Into(type %d, quote %x) error = %v, want success %v", m.Type, quote, err, want)
	}
	old, oldErr := m.QuotedIPv4()
	if (oldErr == nil) != want {
		t.Fatalf("QuotedIPv4 error = %v, want success %v", oldErr, want)
	}
	if !want {
		return
	}
	ff := binary.BigEndian.Uint16(quote[6:8])
	if q.TOS != quote[1] || q.TotalLen != binary.BigEndian.Uint16(quote[2:4]) ||
		q.ID != binary.BigEndian.Uint16(quote[4:6]) || q.Flags != uint8(ff>>13) || q.FragOff != ff&0x1FFF ||
		q.TTL != quote[8] || q.Protocol != IPProto(quote[9]) || q.Checksum != 0 ||
		!bytes.Equal(q.Src[:], quote[12:16]) || !bytes.Equal(q.Dst[:], quote[16:20]) ||
		!bytes.Equal(q.Payload(), quote[ihl:]) {
		t.Fatalf("QuotedIPv4Into(%x) = %+v", quote, q)
	}
	if !reflect.DeepEqual(*old, q) {
		t.Fatalf("QuotedIPv4 = %+v, QuotedIPv4Into %+v", *old, q)
	}
}

// refChecksum is the 16-bit-per-step RFC 1071 loop the word-wise sum
// replaced, kept as the oracle: sum is the partial sum to start from (a
// pseudo-header's, or 0).
func refChecksum(sum uint64, data []byte) uint16 {
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint64(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint64(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// FuzzChecksum checks Checksum and transportChecksum against the 16-bit
// reference loop for arbitrary bytes of any length and any pseudo-header,
// and that the checksum a built UDP or TCP packet carries still verifies
// on decode while one flipped payload bit is rejected.
//
//	go test -run '^$' -fuzz FuzzChecksum -fuzztime 10s ./internal/wire
func FuzzChecksum(f *testing.F) {
	ones := bytes.Repeat([]byte{0xFF}, 80)
	ramp := make([]byte, 80)
	for i := range ramp {
		ramp[i] = byte(0xF0 + i)
	}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 31, 32, 33, 40, 63, 64, 65, 80} {
		f.Add(ones[:n], uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), uint8(0xFF))
		f.Add(ramp[:n], uint32(0x0A000001), uint32(0x08080808), uint8(ProtoUDP))
		f.Add(make([]byte, n), uint32(0), uint32(0), uint8(0))
	}
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint32(1), uint32(2), uint8(ProtoTCP))

	f.Fuzz(func(t *testing.T, data []byte, src, dst uint32, proto uint8) {
		// 256 bytes take every path of the word-wise sum (8-byte words, a
		// short tail, carries); longer inputs add nothing but slow the
		// fuzzer's minimizer to a crawl.
		if len(data) > 256 {
			return
		}
		s, d, p := AddrFromUint32(src), AddrFromUint32(dst), IPProto(proto)
		if got, want := Checksum(data), refChecksum(0, data); got != want {
			t.Fatalf("Checksum(% x) = %#04x, reference %#04x", data, got, want)
		}
		pseudo := uint64(pseudoHeaderSum(s, d, p, len(data)))
		if got, want := transportChecksum(s, d, p, data), refChecksum(pseudo, data); got != want {
			t.Fatalf("transportChecksum(%v, %v, %d, % x) = %#04x, reference %#04x", s, d, p, data, got, want)
		}

		if s.IsZero() {
			s = AddrFrom(10, 0, 0, 1) // a zero source skips verification
		}
		udp, err := BuildUDP(Endpoint{s, 5353}, Endpoint{d, 53}, 64, 1, data)
		if err != nil {
			t.Fatal(err)
		}
		tcp, err := BuildTCP(Endpoint{s, 40000}, Endpoint{d, 80}, 64, 2, TCPAck|TCPPsh, src, dst, data)
		if err != nil {
			t.Fatal(err)
		}
		var parser Parser
		var pkt Packet
		for _, c := range []struct {
			proto IPProto
			raw   []byte
		}{{ProtoUDP, udp}, {ProtoTCP, tcp}} {
			if err := parser.Decode(c.raw, &pkt); err != nil {
				t.Fatalf("built %v packet does not verify: %v", c.proto, err)
			}
			if len(data) == 0 {
				continue
			}
			bit := int(src^dst) % (8 * len(data))
			c.raw[len(c.raw)-len(data)+bit/8] ^= 1 << (bit % 8)
			if err := parser.Decode(c.raw, &pkt); !errors.Is(err, ErrBadChecksum) {
				t.Fatalf("%v packet with payload bit %d flipped: err %v, want %v", c.proto, bit, err, ErrBadChecksum)
			}
		}
	})
}

// TestQuotedIPv4IntoAllocsZero reads a Time Exceeded quote into a stack
// value, as traceroute does for every ICMP error, without allocating.
func TestQuotedIPv4IntoAllocsZero(t *testing.T) {
	probe, _ := BuildUDP(Endpoint{AddrFrom(1, 1, 1, 1), 5353}, Endpoint{AddrFrom(8, 8, 8, 8), 53}, 3, 0x1234, []byte("payload"))
	raw, _ := BuildICMP(AddrFrom(9, 9, 9, 9), AddrFrom(1, 1, 1, 1), 64, 0, &ICMP{Type: ICMPTimeExceeded}, probe[:TimeExceededQuoteLen])
	var p Parser
	var pkt Packet
	if err := p.Decode(raw, &pkt); err != nil || pkt.ICMP == nil {
		t.Fatalf("decode: %v", err)
	}
	var id uint16
	allocs := testing.AllocsPerRun(100, func() {
		var q IPv4
		if pkt.ICMP.QuotedIPv4Into(&q) == nil {
			id = q.ID
		}
	})
	if allocs != 0 {
		t.Errorf("QuotedIPv4Into allocates %v times, want 0", allocs)
	}
	if id != 0x1234 {
		t.Errorf("quoted ID = %#x, want 0x1234", id)
	}
}
