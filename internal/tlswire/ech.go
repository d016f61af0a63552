package tlswire

import "encoding/binary"

// Encrypted Client Hello support (TLS ECH, draft-ietf-tls-esni; the paper's
// Discussion recommends "deploying updated versions (e.g., TLS 1.3 with
// ECH)" to stop SNI observation on the wire).
//
// The simulator models the privacy property rather than the cryptography:
// an ECH ClientHello carries no clear-text server_name extension; the real
// name travels in an encrypted_client_hello extension whose payload only
// the destination can read (here: an opaque XOR-masked blob — on-path
// observers running ParseClientHello/SNIFromBytes see nothing, while
// ECHServerName recovers it at the terminating server).

// extECH is the encrypted_client_hello extension codepoint (draft-18).
const extECH = 0xFE0D

// echMask is the stand-in for the HPKE encryption: enough to guarantee the
// clear-text name never appears in the wire bytes.
var echMask = []byte{0x5A, 0xC3, 0x96, 0x69}

func echSeal(name string) []byte {
	return appendECHSeal(make([]byte, 0, 2+len(name)), name)
}

// appendECHSeal appends the sealed form of name: its length, then its
// bytes under the mask.
func appendECHSeal(b []byte, name string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(name)))
	for i := 0; i < len(name); i++ {
		b = append(b, name[i]^echMask[i%len(echMask)])
	}
	return b
}

func echOpen(payload []byte) (string, bool) {
	if len(payload) < 2 {
		return "", false
	}
	n := int(binary.BigEndian.Uint16(payload[0:2]))
	if len(payload) < 2+n {
		return "", false
	}
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = payload[2+i] ^ echMask[i%len(echMask)]
	}
	return string(out), true
}

// NewClientHelloECH builds a ClientHello whose server name travels only in
// the encrypted_client_hello extension: clear-text SNI is absent, so
// on-path observers extract nothing, while the destination recovers the
// name with ECHServerName.
func NewClientHelloECH(serverName string, random [32]byte) *ClientHello {
	ch := NewClientHello("", random)
	ch.ECHPayload = echSeal(serverName)
	return ch
}

// ECHServerName decrypts the inner server name — the terminating server's
// view. ok is false when the hello carries no (valid) ECH extension.
func (ch *ClientHello) ECHServerName() (string, bool) {
	if len(ch.ECHPayload) == 0 {
		return "", false
	}
	return echOpen(ch.ECHPayload)
}

// HasECH reports whether the hello carries an ECH extension.
func (ch *ClientHello) HasECH() bool { return len(ch.ECHPayload) > 0 }
