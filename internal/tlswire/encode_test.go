package tlswire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// appendsEncode is ClientHello.Encode as it was before the exactly sized
// encoder: the body, extensions, handshake message and record each built
// by appends into buffers of their own.
func appendsEncode(ch *ClientHello) ([]byte, error) {
	if len(ch.ServerName) > 0xFFFF-5 {
		return nil, fmt.Errorf("tlswire: server name too long: %d", len(ch.ServerName))
	}
	if len(ch.SessionID) > 0xFF {
		return nil, fmt.Errorf("tlswire: session ID too long: %d", len(ch.SessionID))
	}
	body := make([]byte, 0, 128+len(ch.ServerName))
	body = appendU16(body, ch.Version)
	body = append(body, ch.Random[:]...)
	body = append(body, byte(len(ch.SessionID)))
	body = append(body, ch.SessionID...)
	body = appendU16(body, uint16(2*len(ch.CipherSuites)))
	for _, cs := range ch.CipherSuites {
		body = appendU16(body, cs)
	}
	body = append(body, 1, 0) // compression methods: null only

	// Extensions.
	var ext []byte
	if ch.ServerName != "" {
		sni := make([]byte, 0, len(ch.ServerName)+5)
		sni = appendU16(sni, uint16(len(ch.ServerName)+3)) // server_name_list length
		sni = append(sni, sniHostName)
		sni = appendU16(sni, uint16(len(ch.ServerName)))
		sni = append(sni, ch.ServerName...)
		ext = appendU16(ext, extServerName)
		ext = appendU16(ext, uint16(len(sni)))
		ext = append(ext, sni...)
	}
	// supported_versions offering TLS 1.3
	sv := []byte{2, 0x03, 0x04}
	ext = appendU16(ext, extSupportedVers)
	ext = appendU16(ext, uint16(len(sv)))
	ext = append(ext, sv...)
	if len(ch.ECHPayload) > 0 {
		ext = appendU16(ext, extECH)
		ext = appendU16(ext, uint16(len(ch.ECHPayload)))
		ext = append(ext, ch.ECHPayload...)
	}

	body = appendU16(body, uint16(len(ext)))
	body = append(body, ext...)

	// Handshake header.
	hs := make([]byte, 4, 4+len(body))
	hs[0] = HandshakeClient
	putU24(hs[1:4], len(body))
	hs = append(hs, body...)
	// Every inner length field counts bytes of hs, so this bounds them all.
	if len(hs) > 0xFFFF {
		return nil, fmt.Errorf("tlswire: record too long: %d", len(hs))
	}

	// Record layer.
	rec := make([]byte, 5, 5+len(hs))
	rec[0] = RecordHandshake
	binary.BigEndian.PutUint16(rec[1:3], VersionTLS12)
	binary.BigEndian.PutUint16(rec[3:5], uint16(len(hs)))
	return append(rec, hs...), nil
}

// FuzzEncodeClientHello holds the exactly sized encoders to appendsEncode
// over fuzzed server names, randoms and session IDs: ClientHello.Encode on
// any hello, and EncodeClientHello and EncodeClientHelloECH on the hellos
// NewClientHello and NewClientHelloECH build, errors included.
func FuzzEncodeClientHello(f *testing.F) {
	f.Add("g6d8jjkut5obc4-9982.www.experiment.domain", []byte("0123456789abcdef0123456789abcdef"), []byte(nil))
	f.Add("", []byte{1}, []byte{0xAA, 0xBB})
	f.Add("MiXeD.Example", []byte(nil), bytes.Repeat([]byte{7}, 32))
	f.Add("x", []byte(nil), bytes.Repeat([]byte{7}, 256))
	f.Add(string(bytes.Repeat([]byte("a"), 0xFFFF-5)), []byte(nil), []byte(nil))
	f.Add(string(bytes.Repeat([]byte("b"), 0xFFFF-80)), []byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, name string, rnd, sid []byte) {
		var random [32]byte
		copy(random[:], rnd)
		same := func(what string, got []byte, gotErr error, want []byte, wantErr error) {
			t.Helper()
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(got, want) {
				t.Fatalf("%s(%q, sid %x): %x, %v; want %x, %v", what, name, sid, got, gotErr, want, wantErr)
			}
			if len(got) != cap(got) {
				t.Fatalf("%s(%q): len %d, cap %d; the buffer should be exact", what, name, len(got), cap(got))
			}
		}
		plain := NewClientHello(name, random)
		want, wantErr := appendsEncode(plain)
		got, err := EncodeClientHello(name, random)
		same("EncodeClientHello", got, err, want, wantErr)

		ech := NewClientHelloECH(name, random)
		want, wantErr = appendsEncode(ech)
		got, err = EncodeClientHelloECH(name, random)
		same("EncodeClientHelloECH", got, err, want, wantErr)
		got, err = ech.Encode()
		same("ECH Encode", got, err, want, wantErr)

		plain.SessionID = sid
		plain.CipherSuites = plain.CipherSuites[:len(sid)%len(plain.CipherSuites)]
		plain.ECHPayload = rnd
		want, wantErr = appendsEncode(plain)
		got, err = plain.Encode()
		same("Encode", got, err, want, wantErr)
	})
}

// TestServerHelloAppendEncode checks that AppendEncode writes the bytes
// Encode returns (recorded from the encoder that built the body,
// handshake and record in buffers of their own), after whatever dst
// already holds, that they parse back, and that a warm buffer absorbs
// them without allocating.
func TestServerHelloAppendEncode(t *testing.T) {
	sh := ServerHello{Version: VersionTLS12, CipherSuite: 0x1301}
	copy(sh.Random[:], "abc123.www.experiment.domain")
	const recorded = "160303002c0200002803036162633132332e7777772e6578706572696d656e742e646f6d61696e00000000001301000000"
	enc := sh.Encode()
	if got := fmt.Sprintf("%x", enc); got != recorded {
		t.Fatalf("Encode = %s, want %s", got, recorded)
	}
	prefix := []byte("prefix")
	out := sh.AppendEncode(append([]byte(nil), prefix...))
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], enc) {
		t.Fatalf("AppendEncode = %x, want %x after the prefix", out, enc)
	}
	back, err := ParseServerHello(out[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if *back != sh {
		t.Errorf("parsed %+v, want %+v", *back, sh)
	}
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { buf = sh.AppendEncode(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendEncode into a warm buffer allocates %v times, want 0", allocs)
	}
}
