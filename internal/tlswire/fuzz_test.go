package tlswire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// entropyName builds a name of n labels, each 63 random base-32 characters:
// the shape of the high-entropy tunneling names scanners put in SNI.
func entropyName(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz234567"
	labels := make([]string, n)
	for i := range labels {
		b := make([]byte, 63)
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		labels[i] = string(b)
	}
	return strings.Join(labels, ".")
}

// FuzzParseClientHello feeds ParseClientHello arbitrary bytes, as the
// realnet honeypot does from its sockets. It must never panic, every field
// it returns must be bounded by the input, and a hello it accepts must
// re-encode and re-parse to the same ServerName and ECH state.
//
//	go test -run '^$' -fuzz FuzzParseClientHello -fuzztime 10s ./internal/tlswire
func FuzzParseClientHello(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	random := testRandom()
	names := []string{
		"a.www.experiment.domain",
		"",
		entropyName(rng, 3) + ".www.experiment.domain",
		entropyName(rng, 64),
		strings.Repeat("x", 70000),
	}
	for _, name := range names {
		for _, ch := range []*ClientHello{NewClientHello(name, random), NewClientHelloECH(name, random)} {
			if raw, err := ch.Encode(); err == nil {
				f.Add(raw)
			}
		}
	}
	withSID := NewClientHello("sid.example", random)
	withSID.SessionID = bytes.Repeat([]byte{0xAB}, 32)
	if raw, err := withSID.Encode(); err == nil {
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Add([]byte{RecordHandshake, 3, 1, 0, 4, HandshakeClient, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := ParseClientHello(data)
		if err != nil {
			return
		}
		if len(ch.SessionID) > len(data) || 2*len(ch.CipherSuites) > len(data) ||
			len(ch.ServerName) > len(data) || len(ch.ECHPayload) > len(data) {
			t.Fatalf("parsed fields exceed the %d-byte input: %d session ID, %d suites, %d name, %d ECH",
				len(data), len(ch.SessionID), len(ch.CipherSuites), len(ch.ServerName), len(ch.ECHPayload))
		}
		raw, err := ch.Encode()
		if err != nil {
			return // a hello too long to frame is refused, never mis-framed
		}
		back, err := ParseClientHello(raw)
		if err != nil {
			t.Fatalf("re-encoded hello does not parse: %v", err)
		}
		if back.ServerName != ch.ServerName {
			t.Fatalf("ServerName %q re-parsed as %q", ch.ServerName, back.ServerName)
		}
		if back.HasECH() != ch.HasECH() || !bytes.Equal(back.ECHPayload, ch.ECHPayload) {
			t.Fatalf("ECH payload %x re-parsed as %x", ch.ECHPayload, back.ECHPayload)
		}
		name, ok := ch.ECHServerName()
		backName, backOK := back.ECHServerName()
		if name != backName || ok != backOK {
			t.Fatalf("ECH name (%q, %v) re-parsed as (%q, %v)", name, ok, backName, backOK)
		}
	})
}

// TestEncodeRefusesOverlong checks that Encode refuses a hello whose
// record or session ID would overflow its length field. It once wrapped
// the 16-bit record length, emitting a record no parser reads back.
func TestEncodeRefusesOverlong(t *testing.T) {
	random := testRandom()
	longSID := NewClientHello("a.example", random)
	longSID.SessionID = make([]byte, 256)
	for name, ch := range map[string]*ClientHello{
		"SNI near the name limit": NewClientHello(strings.Repeat("x", 0xFFFF-74), random),
		"ECH name past 64 KiB":    NewClientHelloECH(strings.Repeat("x", 70000), random),
		"256-byte session ID":     longSID,
	} {
		if raw, err := ch.Encode(); err == nil {
			t.Errorf("%s: Encode gave a %d-byte record, want an error", name, len(raw))
		}
	}
	// The longest name that fits (75 bytes of framing) still round-trips.
	fit := strings.Repeat("x", 0xFFFF-75)
	raw, err := NewClientHello(fit, random).Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseClientHello(raw)
	if err != nil || back.ServerName != fit {
		t.Fatalf("near-limit hello re-parsed as (%d-byte name, %v)", len(back.ServerName), err)
	}
}
