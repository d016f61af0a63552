package wire

import (
	"encoding/binary"
	"fmt"
)

// ICMP message types used by the simulator.
const (
	ICMPEchoReply    uint8 = 0
	ICMPDestUnreach  uint8 = 3
	ICMPEchoRequest  uint8 = 8
	ICMPTimeExceeded uint8 = 11
)

// ICMPHeaderLen is the fixed part of an ICMP message.
const ICMPHeaderLen = 8

// ICMP is a decoded ICMP message (RFC 792). For Time Exceeded and
// Destination Unreachable, Payload carries the original IP header plus the
// first 8 bytes of its payload, which is how traceroute correlates an error
// with the probe that caused it.
type ICMP struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	Rest     uint32 // type-specific: id/seq for echo, unused for errors

	payload []byte
}

// SerializeTo writes the message into buf with a computed checksum.
func (m *ICMP) SerializeTo(buf []byte, payload []byte) (int, error) {
	n := ICMPHeaderLen + len(payload)
	if len(buf) < n {
		return 0, fmt.Errorf("wire: buffer too small for ICMP message: %d < %d", len(buf), n)
	}
	buf[0] = m.Type
	buf[1] = m.Code
	buf[2], buf[3] = 0, 0
	binary.BigEndian.PutUint32(buf[4:8], m.Rest)
	copy(buf[ICMPHeaderLen:], payload)
	cs := Checksum(buf[:n])
	binary.BigEndian.PutUint16(buf[2:4], cs)
	return n, nil
}

// Serialize allocates and returns the wire bytes.
func (m *ICMP) Serialize(payload []byte) ([]byte, error) {
	buf := make([]byte, ICMPHeaderLen+len(payload))
	n, err := m.SerializeTo(buf, payload)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// DecodeFromBytes parses an ICMP message and verifies its checksum.
func (m *ICMP) DecodeFromBytes(data []byte) error {
	if len(data) < ICMPHeaderLen {
		return ErrTruncated
	}
	if Checksum(data) != 0 {
		return ErrBadChecksum
	}
	m.Type = data[0]
	m.Code = data[1]
	m.Checksum = binary.BigEndian.Uint16(data[2:4])
	m.Rest = binary.BigEndian.Uint32(data[4:8])
	m.payload = data[ICMPHeaderLen:] //shadowlint:ignore sliceretain documented zero-copy decoder: payload aliases the caller buffer
	return nil
}

// Payload returns the bytes after the fixed header.
func (m *ICMP) Payload() []byte { return m.payload }

// TimeExceededQuoteLen is how much of the offending packet a router quotes
// in a Time Exceeded message: the IP header plus 8 bytes (RFC 792).
const TimeExceededQuoteLen = IPv4HeaderLen + 8

// NewTimeExceeded builds the ICMP Time Exceeded (TTL expired in transit)
// message a router emits when it decrements a packet's TTL to zero. The
// quoted packet is truncated to TimeExceededQuoteLen.
func NewTimeExceeded(original []byte) *ICMP {
	quote := original
	if len(quote) > TimeExceededQuoteLen {
		quote = quote[:TimeExceededQuoteLen]
	}
	m := &ICMP{Type: ICMPTimeExceeded, Code: 0}
	m.payload = append([]byte(nil), quote...)
	return m
}

// QuotedIPv4 extracts the quoted original IPv4 header from an ICMP error
// message payload into a fresh IPv4 (see QuotedIPv4Into).
func (m *ICMP) QuotedIPv4() (*IPv4, error) {
	var quoted IPv4
	if err := m.QuotedIPv4Into(&quoted); err != nil {
		return nil, err
	}
	return &quoted, nil
}

// QuotedIPv4Into decodes the quoted original IPv4 header of an ICMP error
// message into dst, whose payload then aliases m's. Traceroute uses the
// quoted (src, dst, ID) triple to map an error back to the probe that
// triggered it, decoding into a stack value so that reading an error
// allocates nothing. On error dst is unspecified.
func (m *ICMP) QuotedIPv4Into(dst *IPv4) error {
	if m.Type != ICMPTimeExceeded && m.Type != ICMPDestUnreach {
		return fmt.Errorf("wire: ICMP type %d carries no quoted packet", m.Type)
	}
	if len(m.payload) < IPv4HeaderLen {
		return ErrTruncated
	}
	// The quote is truncated, so TotalLen generally exceeds what is present;
	// decode header fields manually without the length/checksum validation
	// DecodeFromBytes performs on complete packets.
	data := m.payload
	if data[0]>>4 != 4 {
		return ErrBadVersion
	}
	ihl := int(data[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return ErrBadHeader
	}
	*dst = IPv4{
		TOS:      data[1],
		TotalLen: binary.BigEndian.Uint16(data[2:4]),
		ID:       binary.BigEndian.Uint16(data[4:6]),
		TTL:      data[8],
		Protocol: IPProto(data[9]),
		payload:  data[ihl:],
	}
	ff := binary.BigEndian.Uint16(data[6:8])
	dst.Flags = uint8(ff >> 13)
	dst.FragOff = ff & 0x1FFF
	copy(dst.Src[:], data[12:16])
	copy(dst.Dst[:], data[16:20])
	return nil
}
