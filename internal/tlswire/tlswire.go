// Package tlswire builds and parses TLS ClientHello messages with the
// Server Name Indication extension (RFC 8446 §4.1.2, RFC 6066 §3), plus the
// minimal ServerHello the simulated web fleet answers with. The SNI field
// is the clear-text datum on-path observers sniff from TLS decoys, so the
// framing here is real: record layer, handshake header, extensions.
package tlswire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Record and handshake constants.
const (
	RecordHandshake  uint8 = 22
	HandshakeClient  uint8 = 1
	HandshakeServer  uint8 = 2
	VersionTLS12           = 0x0303
	VersionTLS13           = 0x0304
	extServerName          = 0
	extSupportedVers       = 43
	sniHostName      uint8 = 0
)

// Errors returned by the parser.
var (
	ErrTruncated    = errors.New("tlswire: truncated message")
	ErrNotHandshake = errors.New("tlswire: not a handshake record")
	ErrNoSNI        = errors.New("tlswire: no server_name extension")
	ErrMalformed    = errors.New("tlswire: malformed message")
)

// Standard-looking cipher suites offered by decoy ClientHellos, matching a
// modern client fingerprint.
var defaultCipherSuites = []uint16{
	0x1301, 0x1302, 0x1303, // TLS 1.3 AES/ChaCha suites
	0xC02B, 0xC02F, 0xCCA9, 0xCCA8, // ECDHE suites
}

// ClientHello is a parsed (or to-be-serialized) ClientHello.
type ClientHello struct {
	Version      uint16
	Random       [32]byte
	SessionID    []byte
	CipherSuites []uint16
	ServerName   string
	// ECHPayload is the opaque encrypted_client_hello extension body (see
	// ech.go); empty when the hello carries clear-text SNI (or none).
	ECHPayload []byte
}

// NewClientHello builds a TLS 1.3-capable ClientHello carrying serverName in
// SNI. random seeds the client random (deterministic for reproducibility).
func NewClientHello(serverName string, random [32]byte) *ClientHello {
	return &ClientHello{
		Version:      VersionTLS12, // legacy_version per RFC 8446
		Random:       random,
		CipherSuites: append([]uint16(nil), defaultCipherSuites...),
		ServerName:   serverName,
	}
}

// Encode serializes the ClientHello wrapped in a TLS record, in one exactly
// sized buffer. It refuses a hello whose session ID or record would
// overflow its length field.
func (ch *ClientHello) Encode() ([]byte, error) {
	return ch.encode("", false)
}

// EncodeClientHello returns the bytes NewClientHello(serverName,
// random).Encode() does without building the ClientHello: the encoder for
// decoys and probes, which send one hello each.
func EncodeClientHello(serverName string, random [32]byte) ([]byte, error) {
	ch := ClientHello{Version: VersionTLS12, Random: random, CipherSuites: defaultCipherSuites, ServerName: serverName}
	return ch.encode("", false)
}

// EncodeClientHelloECH returns the bytes NewClientHelloECH(serverName,
// random).Encode() does, sealing the name straight into the record.
func EncodeClientHelloECH(serverName string, random [32]byte) ([]byte, error) {
	ch := ClientHello{Version: VersionTLS12, Random: random, CipherSuites: defaultCipherSuites}
	return ch.encode(serverName, true)
}

// encode writes the record. With seal set, the encrypted_client_hello
// extension carries echSeal(echName), written in place, instead of
// ch.ECHPayload.
func (ch *ClientHello) encode(echName string, seal bool) ([]byte, error) {
	if len(ch.ServerName) > 0xFFFF-5 {
		return nil, fmt.Errorf("tlswire: server name too long: %d", len(ch.ServerName))
	}
	if len(ch.SessionID) > 0xFF {
		return nil, fmt.Errorf("tlswire: session ID too long: %d", len(ch.SessionID))
	}
	echLen := len(ch.ECHPayload)
	if seal {
		echLen = 2 + len(echName)
	}
	extLen := 4 + 3 // supported_versions
	if ch.ServerName != "" {
		extLen += 4 + 5 + len(ch.ServerName)
	}
	if echLen > 0 {
		extLen += 4 + echLen
	}
	bodyLen := 2 + 32 + 1 + len(ch.SessionID) + 2 + 2*len(ch.CipherSuites) + 2 + 2 + extLen
	hsLen := 4 + bodyLen
	// Every inner length field counts bytes of the handshake message, so
	// this bounds them all.
	if hsLen > 0xFFFF {
		return nil, fmt.Errorf("tlswire: record too long: %d", hsLen)
	}

	b := make([]byte, 0, 5+hsLen)
	b = append(b, RecordHandshake)
	b = appendU16(b, VersionTLS12)
	b = appendU16(b, uint16(hsLen))
	b = append(b, HandshakeClient, byte(bodyLen>>16), byte(bodyLen>>8), byte(bodyLen))
	b = appendU16(b, ch.Version)
	b = append(b, ch.Random[:]...)
	b = append(b, byte(len(ch.SessionID)))
	b = append(b, ch.SessionID...)
	b = appendU16(b, uint16(2*len(ch.CipherSuites)))
	for _, cs := range ch.CipherSuites {
		b = appendU16(b, cs)
	}
	b = append(b, 1, 0) // compression methods: null only

	b = appendU16(b, uint16(extLen))
	if ch.ServerName != "" {
		b = appendU16(b, extServerName)
		b = appendU16(b, uint16(len(ch.ServerName)+5))
		b = appendU16(b, uint16(len(ch.ServerName)+3)) // server_name_list length
		b = append(b, sniHostName)
		b = appendU16(b, uint16(len(ch.ServerName)))
		b = append(b, ch.ServerName...)
	}
	// supported_versions offering TLS 1.3
	b = appendU16(b, extSupportedVers)
	b = appendU16(b, 3)
	b = append(b, 2, 0x03, 0x04)
	if echLen > 0 {
		b = appendU16(b, extECH)
		b = appendU16(b, uint16(echLen))
		if seal {
			b = appendECHSeal(b, echName)
		} else {
			b = append(b, ch.ECHPayload...)
		}
	}
	return b, nil
}

// ParseClientHello parses a record-wrapped ClientHello. This is the routine
// on-path observers run to extract SNI from sniffed bytes.
func ParseClientHello(data []byte) (*ClientHello, error) {
	var ch ClientHello
	if err := ParseClientHelloInto(&ch, data); err != nil {
		return nil, err
	}
	return &ch, nil
}

// ParseClientHelloInto is ParseClientHello decoding into ch, which it
// overwrites in full: the session ID, cipher-suite and ECH slices reuse
// ch's backing arrays, so a server that parses every arriving hello into
// one scratch value allocates only the server name once warm. On error ch
// holds partial state.
func ParseClientHelloInto(ch *ClientHello, data []byte) error {
	ch.SessionID, ch.CipherSuites = ch.SessionID[:0], ch.CipherSuites[:0]
	ch.ServerName, ch.ECHPayload = "", ch.ECHPayload[:0]
	if len(data) < 5 {
		return ErrTruncated
	}
	if data[0] != RecordHandshake {
		return ErrNotHandshake
	}
	recLen := int(binary.BigEndian.Uint16(data[3:5]))
	if len(data) < 5+recLen {
		return ErrTruncated
	}
	hs := data[5 : 5+recLen]
	if len(hs) < 4 || hs[0] != HandshakeClient {
		return ErrNotHandshake
	}
	bodyLen := u24(hs[1:4])
	if len(hs) < 4+bodyLen {
		return ErrTruncated
	}
	body := hs[4 : 4+bodyLen]

	r := reader{buf: body}
	var ok bool
	if ch.Version, ok = r.u16(); !ok {
		return ErrTruncated
	}
	rnd, ok := r.bytes(32)
	if !ok {
		return ErrTruncated
	}
	copy(ch.Random[:], rnd)
	sidLen, ok := r.u8()
	if !ok {
		return ErrTruncated
	}
	sid, ok := r.bytes(int(sidLen))
	if !ok {
		return ErrTruncated
	}
	ch.SessionID = append(ch.SessionID, sid...)
	csLen, ok := r.u16()
	if !ok || csLen%2 != 0 {
		return ErrMalformed
	}
	cs, ok := r.bytes(int(csLen))
	if !ok {
		return ErrTruncated
	}
	for i := 0; i+1 < len(cs); i += 2 {
		ch.CipherSuites = append(ch.CipherSuites, binary.BigEndian.Uint16(cs[i:i+2]))
	}
	compLen, ok := r.u8()
	if !ok {
		return ErrTruncated
	}
	if _, ok = r.bytes(int(compLen)); !ok {
		return ErrTruncated
	}
	if r.len() == 0 {
		return nil // no extensions
	}
	extLen, ok := r.u16()
	if !ok {
		return ErrTruncated
	}
	exts, ok := r.bytes(int(extLen))
	if !ok {
		return ErrTruncated
	}
	er := reader{buf: exts}
	for er.len() > 0 {
		typ, ok1 := er.u16()
		l, ok2 := er.u16()
		if !ok1 || !ok2 {
			return ErrMalformed
		}
		val, ok := er.bytes(int(l))
		if !ok {
			return ErrTruncated
		}
		switch typ {
		case extServerName:
			name, err := parseSNI(val)
			if err != nil {
				return err
			}
			ch.ServerName = name
		case extECH:
			ch.ECHPayload = append(ch.ECHPayload[:0], val...)
		}
	}
	return nil
}

func parseSNI(val []byte) (string, error) {
	r := reader{buf: val}
	listLen, ok := r.u16()
	if !ok {
		return "", ErrTruncated
	}
	list, ok := r.bytes(int(listLen))
	if !ok {
		return "", ErrTruncated
	}
	lr := reader{buf: list}
	for lr.len() > 0 {
		typ, ok1 := lr.u8()
		nameLen, ok2 := lr.u16()
		if !ok1 || !ok2 {
			return "", ErrMalformed
		}
		name, ok := lr.bytes(int(nameLen))
		if !ok {
			return "", ErrTruncated
		}
		if typ == sniHostName {
			return string(name), nil
		}
	}
	return "", ErrNoSNI
}

// SNIFromBytes extracts just the server name from a serialized ClientHello,
// the single-field fast path used by observer taps: it walks the same
// framing ParseClientHello validates but skips past the fields it does not
// need, so the only allocation is the returned name.
func SNIFromBytes(data []byte) (string, error) {
	if len(data) < 5 {
		return "", ErrTruncated
	}
	if data[0] != RecordHandshake {
		return "", ErrNotHandshake
	}
	recLen := int(binary.BigEndian.Uint16(data[3:5]))
	if len(data) < 5+recLen {
		return "", ErrTruncated
	}
	hs := data[5 : 5+recLen]
	if len(hs) < 4 || hs[0] != HandshakeClient {
		return "", ErrNotHandshake
	}
	bodyLen := u24(hs[1:4])
	if len(hs) < 4+bodyLen {
		return "", ErrTruncated
	}
	r := reader{buf: hs[4 : 4+bodyLen]}
	if _, ok := r.u16(); !ok { // legacy_version
		return "", ErrTruncated
	}
	if _, ok := r.bytes(32); !ok { // random
		return "", ErrTruncated
	}
	sidLen, ok := r.u8()
	if !ok {
		return "", ErrTruncated
	}
	if _, ok := r.bytes(int(sidLen)); !ok {
		return "", ErrTruncated
	}
	csLen, ok := r.u16()
	if !ok || csLen%2 != 0 {
		return "", ErrMalformed
	}
	if _, ok := r.bytes(int(csLen)); !ok {
		return "", ErrTruncated
	}
	compLen, ok := r.u8()
	if !ok {
		return "", ErrTruncated
	}
	if _, ok = r.bytes(int(compLen)); !ok {
		return "", ErrTruncated
	}
	if r.len() == 0 {
		return "", ErrNoSNI // no extensions
	}
	extLen, ok := r.u16()
	if !ok {
		return "", ErrTruncated
	}
	exts, ok := r.bytes(int(extLen))
	if !ok {
		return "", ErrTruncated
	}
	er := reader{buf: exts}
	name := ""
	for er.len() > 0 {
		typ, ok1 := er.u16()
		l, ok2 := er.u16()
		if !ok1 || !ok2 {
			return "", ErrMalformed
		}
		val, ok := er.bytes(int(l))
		if !ok {
			return "", ErrTruncated
		}
		if typ == extServerName {
			n, err := parseSNI(val)
			if err != nil {
				return "", err
			}
			name = n
		}
	}
	if name == "" {
		return "", ErrNoSNI
	}
	return name, nil
}

// ServerHello is the minimal reply the simulated web fleet sends,
// sufficient to complete the decoy exchange authentically.
type ServerHello struct {
	Version     uint16
	Random      [32]byte
	CipherSuite uint16
}

// serverHelloBodyLen is the length of an encoded ServerHello body:
// version, random, an empty session ID, the cipher suite, null
// compression and no extensions.
const serverHelloBodyLen = 2 + 32 + 1 + 2 + 1 + 2

// Encode serializes the ServerHello wrapped in a TLS record, into a
// buffer of its own.
func (sh *ServerHello) Encode() []byte {
	return sh.AppendEncode(make([]byte, 0, 5+4+serverHelloBodyLen))
}

// AppendEncode appends the record-wrapped ServerHello to dst and returns
// the extended buffer: with a reused dst of enough capacity, encoding
// allocates nothing.
func (sh *ServerHello) AppendEncode(dst []byte) []byte {
	dst = append(dst, RecordHandshake, byte(VersionTLS12>>8), byte(VersionTLS12&0xFF), 0, 4+serverHelloBodyLen)
	dst = append(dst, HandshakeServer, 0, 0, serverHelloBodyLen)
	dst = appendU16(dst, sh.Version)
	dst = append(dst, sh.Random[:]...)
	dst = append(dst, 0) // empty session id
	dst = appendU16(dst, sh.CipherSuite)
	dst = append(dst, 0)     // null compression
	return appendU16(dst, 0) // no extensions
}

// ParseServerHello parses a record-wrapped ServerHello.
func ParseServerHello(data []byte) (*ServerHello, error) {
	if len(data) < 5 || data[0] != RecordHandshake {
		return nil, ErrNotHandshake
	}
	recLen := int(binary.BigEndian.Uint16(data[3:5]))
	if len(data) < 5+recLen {
		return nil, ErrTruncated
	}
	hs := data[5 : 5+recLen]
	if len(hs) < 4 || hs[0] != HandshakeServer {
		return nil, ErrNotHandshake
	}
	body := hs[4:]
	r := reader{buf: body}
	var sh ServerHello
	var ok bool
	if sh.Version, ok = r.u16(); !ok {
		return nil, ErrTruncated
	}
	rnd, ok := r.bytes(32)
	if !ok {
		return nil, ErrTruncated
	}
	copy(sh.Random[:], rnd)
	sidLen, ok := r.u8()
	if !ok {
		return nil, ErrTruncated
	}
	if _, ok = r.bytes(int(sidLen)); !ok {
		return nil, ErrTruncated
	}
	if sh.CipherSuite, ok = r.u16(); !ok {
		return nil, ErrTruncated
	}
	return &sh, nil
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) len() int { return len(r.buf) - r.off }

func (r *reader) u8() (uint8, bool) {
	if r.len() < 1 {
		return 0, false
	}
	v := r.buf[r.off]
	r.off++
	return v, true
}

func (r *reader) u16() (uint16, bool) {
	if r.len() < 2 {
		return 0, false
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, true
}

func (r *reader) bytes(n int) ([]byte, bool) {
	if n < 0 || r.len() < n {
		return nil, false
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v, true
}

func appendU16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

func putU24(b []byte, v int) {
	b[0], b[1], b[2] = byte(v>>16), byte(v>>8), byte(v)
}

func u24(b []byte) int {
	return int(b[0])<<16 | int(b[1])<<8 | int(b[2])
}
