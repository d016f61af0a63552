// Package identifier implements the decoy-specific identifier string that
// forms the left-most label of every experiment domain (Section 3 of the
// paper): an encoding of (time sent, vantage-point address, destination
// address, initial IP TTL) plus a nonce and checksum.
//
// The identifier makes every decoy domain globally unique, so any later
// appearance of the domain is attributable to exactly one decoy emission —
// this is what lets honeypots compute retention intervals, recover the
// original client-server path, and (during Phase II tracerouting) know the
// initial TTL of the probe that leaked.
//
// Wire layout (15 bytes, base32-encoded to a 24-character DNS label):
//
//	[0:4]   seconds since the experiment epoch (big endian)
//	[4:8]   vantage point IPv4 address
//	[8:12]  destination IPv4 address
//	[12]    initial IP TTL
//	[13:15] nonce
//
// followed by a 2-byte CRC-16/CCITT of bytes [0:15], then everything is
// base32-encoded. A "-NNNN" decimal suffix of the nonce is appended for
// human readability, mirroring the "g6d8jjkut5obc4-9982" shape shown in
// the paper; the decoder ignores it.
package identifier

import (
	"encoding/base32"
	"errors"
	"fmt"
	"strings"
	"time"

	"shadowmeter/internal/wire"
)

// ID is a decoded decoy identifier.
type ID struct {
	Time  time.Time // emission time (second granularity)
	VP    wire.Addr // vantage point (source) address
	Dst   wire.Addr // destination address
	TTL   uint8     // initial IP TTL of the decoy
	Nonce uint16
}

// Codec encodes and decodes identifiers relative to a fixed experiment
// epoch. The epoch bounds the encodable window to ~136 years, far beyond
// any campaign.
type Codec struct {
	Epoch time.Time
}

// NewCodec returns a codec anchored at epoch (truncated to seconds).
func NewCodec(epoch time.Time) *Codec {
	return &Codec{Epoch: epoch.Truncate(time.Second)}
}

const (
	payloadLen = 15
	totalLen   = payloadLen + 2 // + CRC16
	// EncodedLen is the length of the base32 body of an identifier label.
	EncodedLen = (totalLen*8 + 4) / 5 // 28 chars
	// labelLen is the length of an encoded label: the base32 body, a '-'
	// and four decimal nonce digits.
	labelLen = EncodedLen + 5
)

// Errors returned by Decode.
var (
	ErrBadLength   = errors.New("identifier: wrong encoded length")
	ErrBadChecksum = errors.New("identifier: checksum mismatch")
	ErrBadSymbol   = errors.New("identifier: invalid base32 symbol")
	ErrBeforeEpoch = errors.New("identifier: time before codec epoch")
)

// Encode renders the identifier as a DNS-safe label.
func (c *Codec) Encode(id ID) (string, error) {
	var out [labelLen]byte
	label, err := c.AppendEncode(out[:0], id)
	if err != nil {
		return "", err
	}
	return string(label), nil
}

// AppendEncode appends the label Encode renders to dst, so a caller can
// build a whole domain around it with one allocation.
func (c *Codec) AppendEncode(dst []byte, id ID) ([]byte, error) {
	secs := id.Time.Unix() - c.Epoch.Unix()
	if secs < 0 {
		return dst, ErrBeforeEpoch
	}
	if secs > 0xFFFFFFFF {
		return dst, fmt.Errorf("identifier: time overflows epoch window")
	}
	var buf [totalLen]byte
	buf[0] = byte(secs >> 24)
	buf[1] = byte(secs >> 16)
	buf[2] = byte(secs >> 8)
	buf[3] = byte(secs)
	copy(buf[4:8], id.VP[:])
	copy(buf[8:12], id.Dst[:])
	buf[12] = id.TTL
	buf[13] = byte(id.Nonce >> 8)
	buf[14] = byte(id.Nonce)
	crc := crc16(buf[:payloadLen])
	buf[15] = byte(crc >> 8)
	buf[16] = byte(crc)
	// Label = base32 body, '-', 4 decimal nonce digits.
	dst = b32.AppendEncode(dst, buf[:])
	suffix := id.Nonce % 10000
	return append(dst, '-',
		byte('0'+suffix/1000%10),
		byte('0'+suffix/100%10),
		byte('0'+suffix/10%10),
		byte('0'+suffix%10)), nil
}

// Decode parses a label produced by Encode. The decimal suffix, if present,
// is ignored; integrity rests on the checksum.
func (c *Codec) Decode(label string) (ID, error) {
	if i := strings.IndexByte(label, '-'); i >= 0 {
		label = label[:i]
	}
	if len(label) != EncodedLen {
		return ID{}, ErrBadLength
	}
	var raw [EncodedLen * 5 / 8]byte
	buf, err := decodeBase32(label, raw[:0])
	if err != nil {
		return ID{}, err
	}
	if len(buf) < totalLen {
		return ID{}, ErrBadLength
	}
	want := uint16(buf[15])<<8 | uint16(buf[16])
	if crc16(buf[:payloadLen]) != want {
		return ID{}, ErrBadChecksum
	}
	var id ID
	secs := int64(buf[0])<<24 | int64(buf[1])<<16 | int64(buf[2])<<8 | int64(buf[3])
	id.Time = time.Unix(c.Epoch.Unix()+secs, 0).UTC()
	copy(id.VP[:], buf[4:8])
	copy(id.Dst[:], buf[8:12])
	id.TTL = buf[12]
	id.Nonce = uint16(buf[13])<<8 | uint16(buf[14])
	return id, nil
}

// IsIdentifierLabel reports whether label has the shape of an encoded
// identifier (without validating the checksum). Honeypots use this as a
// cheap pre-filter before full decoding.
func IsIdentifierLabel(label string) bool {
	if i := strings.IndexByte(label, '-'); i >= 0 {
		label = label[:i]
	}
	if len(label) != EncodedLen {
		return false
	}
	for i := 0; i < len(label); i++ {
		if alphabetRev[label[i]] < 0 {
			return false
		}
	}
	return true
}

// DNS-safe base32 alphabet (RFC 4648 lowercase).
const alphabet = "abcdefghijklmnopqrstuvwxyz234567"

// b32 encodes identifier bodies. Decoding stays with decodeBase32, which
// rejects the line breaks encoding/base32 skips.
var b32 = base32.NewEncoding(alphabet).WithPadding(base32.NoPadding)

var alphabetRev = func() [256]int8 {
	var rev [256]int8
	for i := range rev {
		rev[i] = -1
	}
	for i := 0; i < len(alphabet); i++ {
		rev[alphabet[i]] = int8(i)
	}
	return rev
}()

// decodeBase32 appends the decoded bytes of s to out; a caller passing a
// stack-backed slice with capacity len(s)*5/8 gets an allocation-free
// decode.
func decodeBase32(s string, out []byte) ([]byte, error) {
	var acc uint32
	var bits uint
	for i := 0; i < len(s); i++ {
		v := alphabetRev[s[i]]
		if v < 0 {
			return nil, ErrBadSymbol
		}
		acc = acc<<5 | uint32(v)
		bits += 5
		if bits >= 8 {
			bits -= 8
			out = append(out, byte(acc>>bits))
		}
	}
	return out, nil
}

// crc16Table holds the CRC-16/CCITT-FALSE (polynomial 0x1021) remainder
// of every byte value shifted into the register's high byte.
var crc16Table = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for k := 0; k < 8; k++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// crc16 computes CRC-16/CCITT-FALSE, one table lookup per byte.
func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}
