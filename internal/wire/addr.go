// Package wire implements the packet wire formats used throughout the
// shadowmeter simulator: IPv4, UDP, TCP, and ICMP headers with real
// serialization, checksumming, and layered decoding in the style of
// gopacket's DecodingLayerParser (decode into caller-owned structs, no
// per-packet allocation on the hot path).
//
// The simulator moves real bytes: every decoy is serialized to its wire
// representation before it traverses the simulated Internet, and every
// on-path observer parses those bytes the way a DPI device would. This
// keeps the measurement pipeline honest — honeypots and observers can only
// act on what is actually visible in the packet.
package wire

import "fmt"

// Addr is an IPv4 address. It is a comparable value type so it can key maps
// (flow tables, observer retention stores, geo databases).
type Addr [4]byte

// AddrFrom returns the address a.b.c.d.
func AddrFrom(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// ParseAddr parses dotted-quad notation. It returns the zero Addr and an
// error on malformed input.
func ParseAddr(s string) (Addr, error) {
	var a Addr
	var parts [4]int
	n, err := fmt.Sscanf(s, "%d.%d.%d.%d", &parts[0], &parts[1], &parts[2], &parts[3])
	if err != nil || n != 4 {
		return a, fmt.Errorf("wire: malformed IPv4 address %q", s)
	}
	for i, p := range parts {
		if p < 0 || p > 255 {
			return a, fmt.Errorf("wire: IPv4 octet out of range in %q", s)
		}
		a[i] = byte(p)
	}
	return a, nil
}

// MustParseAddr is ParseAddr that panics on error, for tests and static
// tables (e.g. the public-resolver list).
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether a is the unspecified address 0.0.0.0.
func (a Addr) IsZero() bool { return a == Addr{} }

// Uint32 returns the address as a big-endian uint32.
func (a Addr) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// AddrFromUint32 converts a big-endian uint32 into an Addr.
func AddrFromUint32(v uint32) Addr {
	return Addr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Slash24 returns the /24 network containing a (last octet zeroed). The
// pair-resolver interception heuristic (Appendix E) relies on two addresses
// in the same /24 sharing a forwarding path.
func (a Addr) Slash24() Addr { return Addr{a[0], a[1], a[2], 0} }

// SameSlash24 reports whether a and b share a /24.
func (a Addr) SameSlash24(b Addr) bool { return a.Slash24() == b.Slash24() }

// Endpoint is an (address, port) pair.
type Endpoint struct {
	Addr Addr
	Port uint16
}

// String renders addr:port.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Flow identifies a transport flow by protocol and both endpoints. It is
// comparable and symmetric-hashable via Canonical.
type Flow struct {
	Proto    IPProto
	Src, Dst Endpoint
}

// Reverse returns the flow with endpoints swapped.
func (f Flow) Reverse() Flow { return Flow{Proto: f.Proto, Src: f.Dst, Dst: f.Src} }

// Canonical returns a direction-independent representative of the flow
// (the lexicographically smaller of f and f.Reverse()), so both directions
// of a conversation map to the same key.
func (f Flow) Canonical() Flow {
	r := f.Reverse()
	if less(f, r) {
		return f
	}
	return r
}

func less(a, b Flow) bool {
	au, bu := a.Src.Addr.Uint32(), b.Src.Addr.Uint32()
	if au != bu {
		return au < bu
	}
	if a.Src.Port != b.Src.Port {
		return a.Src.Port < b.Src.Port
	}
	au, bu = a.Dst.Addr.Uint32(), b.Dst.Addr.Uint32()
	if au != bu {
		return au < bu
	}
	return a.Dst.Port < b.Dst.Port
}

// String renders "proto src->dst".
func (f Flow) String() string {
	return fmt.Sprintf("%s %s->%s", f.Proto, f.Src, f.Dst)
}
