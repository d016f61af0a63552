package wire

import (
	"bytes"
	"testing"
)

// FuzzParserDecode feeds arbitrary bytes to the per-hop decode path. Decode
// must never panic. Whenever the IPv4 decoder accepts a packet with TTL
// above zero, DecrementTTL (the RFC 1624 incremental update every router
// hop runs) must leave a header that still decodes, with a valid checksum,
// a TTL one lower and every other byte untouched; a packet the full parser
// accepted must stay acceptable, since no transport checksum covers TTL.
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
