package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// IPProto is the IPv4 protocol number.
type IPProto uint8

// Protocol numbers used by the simulator.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

// String names the protocol.
func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// IPv4HeaderLen is the length of an IPv4 header without options. The
// simulator never emits options.
const IPv4HeaderLen = 20

// Common errors returned by decoders.
var (
	ErrTruncated   = errors.New("wire: truncated packet")
	ErrBadVersion  = errors.New("wire: not an IPv4 packet")
	ErrBadChecksum = errors.New("wire: bad checksum")
	ErrBadHeader   = errors.New("wire: malformed header")
)

// IPv4 is a decoded IPv4 header. Fields follow RFC 791. It doubles as a
// DecodingLayer: DecodeFromBytes fills the struct in place without
// allocating, so a single IPv4 value can be reused across packets.
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol IPProto
	Checksum uint16
	Src, Dst Addr

	payload []byte
}

// IPv4 flag bits.
const (
	FlagDF = 0x2 // don't fragment
	FlagMF = 0x1 // more fragments
)

// SerializeTo writes the header followed by payload into buf, which must be
// at least SerializedLen bytes. TotalLen and Checksum are computed; the
// caller's values for those fields are ignored. It returns the number of
// bytes written.
func (h *IPv4) SerializeTo(buf []byte, payload []byte) (int, error) {
	n := IPv4HeaderLen + len(payload)
	if len(buf) < n {
		return 0, fmt.Errorf("wire: buffer too small for IPv4 packet: %d < %d", len(buf), n)
	}
	if err := h.SerializeHeader(buf, len(payload)); err != nil {
		return 0, err
	}
	copy(buf[IPv4HeaderLen:], payload)
	return n, nil
}

// SerializeHeader writes only the 20-byte header into buf, assuming
// payloadLen payload bytes already sit (or will sit) at
// buf[IPv4HeaderLen:]. This is the single-allocation build path: the
// transport layer serializes in place first, then the header slots in
// front without re-copying the payload.
func (h *IPv4) SerializeHeader(buf []byte, payloadLen int) error {
	n := IPv4HeaderLen + payloadLen
	if len(buf) < IPv4HeaderLen {
		return fmt.Errorf("wire: buffer too small for IPv4 header: %d < %d", len(buf), IPv4HeaderLen)
	}
	if n > 0xFFFF {
		return fmt.Errorf("wire: IPv4 packet too large: %d", n)
	}
	buf[0] = 0x45 // version 4, IHL 5
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:4], uint16(n))
	binary.BigEndian.PutUint16(buf[4:6], h.ID)
	binary.BigEndian.PutUint16(buf[6:8], uint16(h.Flags)<<13|h.FragOff&0x1FFF)
	buf[8] = h.TTL
	buf[9] = uint8(h.Protocol)
	buf[10], buf[11] = 0, 0
	copy(buf[12:16], h.Src[:])
	copy(buf[16:20], h.Dst[:])
	cs := Checksum(buf[:IPv4HeaderLen])
	binary.BigEndian.PutUint16(buf[10:12], cs)
	return nil
}

// Serialize allocates and returns the wire bytes of header+payload.
func (h *IPv4) Serialize(payload []byte) ([]byte, error) {
	buf := make([]byte, IPv4HeaderLen+len(payload))
	n, err := h.SerializeTo(buf, payload)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// DecodeFromBytes parses an IPv4 packet into h, validating version, lengths
// and the header checksum. The payload is aliased (not copied) from data.
func (h *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4HeaderLen {
		return ErrTruncated
	}
	if data[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return ErrBadHeader
	}
	if Checksum(data[:ihl]) != 0 {
		return ErrBadChecksum
	}
	h.TOS = data[1]
	h.TotalLen = binary.BigEndian.Uint16(data[2:4])
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(data) {
		return ErrBadHeader
	}
	h.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	h.Flags = uint8(ff >> 13)
	h.FragOff = ff & 0x1FFF
	h.TTL = data[8]
	h.Protocol = IPProto(data[9])
	h.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(h.Src[:], data[12:16])
	copy(h.Dst[:], data[16:20])
	h.payload = data[ihl:h.TotalLen] //shadowlint:ignore sliceretain documented zero-copy decoder: payload aliases the caller buffer
	return nil
}

// Payload returns the bytes after the header, valid until the buffer passed
// to DecodeFromBytes is reused.
func (h *IPv4) Payload() []byte { return h.payload }

// DecrementTTL rewrites the TTL and incrementally updates the header
// checksum in the serialized packet pkt, per RFC 1624. It returns the new
// TTL value, or an error if the packet is too short. This is the router
// fast path: no re-serialization of the packet is needed per hop.
func DecrementTTL(pkt []byte) (uint8, error) {
	if len(pkt) < IPv4HeaderLen {
		return 0, ErrTruncated
	}
	old := pkt[8]
	if old == 0 {
		return 0, errors.New("wire: TTL already zero")
	}
	pkt[8] = old - 1
	// RFC 1624 incremental update: HC' = ~(~HC + ~m + m')
	// where m is the old 16-bit word containing TTL, m' the new one.
	oldWord := uint16(old)<<8 | uint16(pkt[9])
	newWord := uint16(pkt[8])<<8 | uint16(pkt[9])
	hc := binary.BigEndian.Uint16(pkt[10:12])
	sum := uint32(^hc) + uint32(^oldWord&0xFFFF) + uint32(newWord)
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	binary.BigEndian.PutUint16(pkt[10:12], ^uint16(sum))
	return pkt[8], nil
}

// Checksum computes the Internet checksum (RFC 1071) over data.
func Checksum(data []byte) uint16 {
	return ^fold(sumWords(data, 0))
}

// sumWords adds data to sum as big-endian 64-bit words in one's-complement
// arithmetic (end-around carry), zero-padding a short tail. RFC 1071 §2:
// the one's-complement sum is the same at any word size that is a multiple
// of 16 bits, so fold(sumWords(data, 0)) is the 16-bit sum of data. It is
// 0 only when sum and every word are 0, as the 16-bit sum is.
func sumWords(data []byte, sum uint64) uint64 {
	var carry uint64
	for len(data) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	if len(data) > 0 {
		var w uint64
		for i, b := range data {
			w |= uint64(b) << (56 - 8*uint(i))
		}
		sum, carry = bits.Add64(sum, w, carry)
	}
	sum, carry = bits.Add64(sum, 0, carry)
	return sum + carry
}

// fold reduces a one's-complement sum to 16 bits. Each step adds the high
// half into the low half, so a nonzero sum never folds to 0.
func fold(sum uint64) uint16 {
	sum = sum>>32 + sum&0xFFFFFFFF
	sum = sum>>32 + sum&0xFFFFFFFF
	sum = sum>>16 + sum&0xFFFF
	sum = sum>>16 + sum&0xFFFF
	return uint16(sum)
}

// pseudoHeaderSum computes the IPv4 pseudo-header partial sum used by the
// TCP and UDP checksums.
func pseudoHeaderSum(src, dst Addr, proto IPProto, length int) uint32 {
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(src[0:2]))
	sum += uint32(binary.BigEndian.Uint16(src[2:4]))
	sum += uint32(binary.BigEndian.Uint16(dst[0:2]))
	sum += uint32(binary.BigEndian.Uint16(dst[2:4]))
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// transportChecksum computes a TCP/UDP checksum including the pseudo-header.
func transportChecksum(src, dst Addr, proto IPProto, segment []byte) uint16 {
	return ^fold(sumWords(segment, uint64(pseudoHeaderSum(src, dst, proto, len(segment)))))
}
