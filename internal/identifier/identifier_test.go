package identifier

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"shadowmeter/internal/wire"
)

var epoch = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

func TestRoundTrip(t *testing.T) {
	c := NewCodec(epoch)
	id := ID{
		Time:  epoch.Add(42 * time.Hour),
		VP:    wire.AddrFrom(100, 64, 3, 7),
		Dst:   wire.AddrFrom(77, 88, 8, 8),
		TTL:   17,
		Nonce: 9982,
	}
	label, err := c.Encode(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(label)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Time.Equal(id.Time) || got.VP != id.VP || got.Dst != id.Dst || got.TTL != id.TTL || got.Nonce != id.Nonce {
		t.Errorf("round trip mismatch: %+v != %+v", got, id)
	}
}

func TestLabelShape(t *testing.T) {
	c := NewCodec(epoch)
	label, err := c.Encode(ID{Time: epoch, Nonce: 9982})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(label, "-9982") {
		t.Errorf("label should end with decimal nonce: %q", label)
	}
	if len(label) != EncodedLen+5 {
		t.Errorf("label length = %d, want %d", len(label), EncodedLen+5)
	}
	// DNS label limit.
	if len(label) > 63 {
		t.Errorf("label exceeds 63 octets: %d", len(label))
	}
	for _, r := range label {
		if !strings.ContainsRune(alphabet+"-0123456789", r) {
			t.Errorf("non DNS-safe rune %q in label", r)
		}
	}
	if !IsIdentifierLabel(label) {
		t.Error("IsIdentifierLabel rejected a valid label")
	}
}

func TestBeforeEpoch(t *testing.T) {
	c := NewCodec(epoch)
	if _, err := c.Encode(ID{Time: epoch.Add(-time.Second)}); err != ErrBeforeEpoch {
		t.Errorf("want ErrBeforeEpoch, got %v", err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	c := NewCodec(epoch)
	label, err := c.Encode(ID{Time: epoch.Add(time.Hour), VP: wire.AddrFrom(1, 2, 3, 4), TTL: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Flip each symbol of the body; every single-symbol corruption must be
	// caught by the CRC (or produce an invalid-symbol error).
	body := label[:EncodedLen]
	for i := 0; i < len(body); i++ {
		mut := []byte(body)
		if mut[i] == 'a' {
			mut[i] = 'b'
		} else {
			mut[i] = 'a'
		}
		if _, err := c.Decode(string(mut)); err == nil {
			t.Errorf("corruption at %d not detected", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	c := NewCodec(epoch)
	if _, err := c.Decode("short"); err != ErrBadLength {
		t.Errorf("short: %v", err)
	}
	bad := strings.Repeat("A", EncodedLen) // uppercase not in alphabet
	if _, err := c.Decode(bad); err != ErrBadSymbol {
		t.Errorf("bad symbol: %v", err)
	}
	if IsIdentifierLabel("www") || IsIdentifierLabel(bad) {
		t.Error("IsIdentifierLabel accepted invalid labels")
	}
}

func TestSuffixIgnored(t *testing.T) {
	c := NewCodec(epoch)
	id := ID{Time: epoch.Add(time.Minute), Nonce: 7}
	label, err := c.Encode(id)
	if err != nil {
		t.Fatal(err)
	}
	body := label[:EncodedLen]
	for _, variant := range []string{body, body + "-0000", body + "-junk"} {
		got, err := c.Decode(variant)
		if err != nil {
			t.Errorf("Decode(%q): %v", variant, err)
			continue
		}
		if got.Nonce != 7 {
			t.Errorf("nonce = %d", got.Nonce)
		}
	}
}

func TestUniquenessAcrossNonces(t *testing.T) {
	c := NewCodec(epoch)
	seen := make(map[string]bool)
	id := ID{Time: epoch.Add(time.Hour), VP: wire.AddrFrom(9, 9, 9, 9), Dst: wire.AddrFrom(8, 8, 8, 8), TTL: 64}
	for n := 0; n < 5000; n++ {
		id.Nonce = uint16(n)
		label, err := c.Encode(id)
		if err != nil {
			t.Fatal(err)
		}
		if seen[label] {
			t.Fatalf("duplicate label at nonce %d", n)
		}
		seen[label] = true
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := NewCodec(epoch)
	f := func(secs uint32, vp, dst uint32, ttl uint8, nonce uint16) bool {
		id := ID{
			Time:  epoch.Add(time.Duration(secs%(86400*365)) * time.Second),
			VP:    wire.AddrFromUint32(vp),
			Dst:   wire.AddrFromUint32(dst),
			TTL:   ttl,
			Nonce: nonce,
		}
		label, err := c.Encode(id)
		if err != nil {
			return false
		}
		got, err := c.Decode(label)
		if err != nil {
			return false
		}
		return got.Time.Equal(id.Time) && got.VP == id.VP && got.Dst == id.Dst &&
			got.TTL == id.TTL && got.Nonce == id.Nonce
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEncodeVector pins labels recorded from the hand-written base32
// encoder that encoding/base32 replaced.
func TestEncodeVector(t *testing.T) {
	c := NewCodec(epoch)
	for _, tc := range []struct {
		id   ID
		want string
	}{
		{ID{Time: epoch.Add(42 * time.Hour), VP: wire.AddrFrom(100, 64, 3, 7), Dst: wire.AddrFrom(77, 88, 8, 8), TTL: 17, Nonce: 9982},
			"aabe5ideiabqotkybaebcjx6tzjq-9982"},
		{ID{Time: epoch.Add((1<<32 - 1) * time.Second), VP: wire.AddrFrom(255, 255, 255, 255), TTL: 255, Nonce: 65535},
			"7777777777776aaaaaap7777gyoq-5535"},
	} {
		if got, err := c.Encode(tc.id); err != nil || got != tc.want {
			t.Errorf("Encode(%+v) = %q, %v; want %q", tc.id, got, err, tc.want)
		}
	}
}

func TestCRC16Vector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := crc16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("crc16 = %#x, want 0x29b1", got)
	}
}

// crc16Bitwise is the bit-at-a-time CRC-16/CCITT-FALSE the table-driven
// crc16 replaced, kept as its reference.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRC16MatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	buf := make([]byte, 64)
	for i := 0; i < 5000; i++ {
		data := buf[:rng.Intn(len(buf)+1)]
		rng.Read(data)
		if got, want := crc16(data), crc16Bitwise(data); got != want {
			t.Fatalf("crc16(%x) = %#04x, bitwise reference %#04x", data, got, want)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	c := NewCodec(epoch)
	id := ID{Time: epoch.Add(time.Hour), VP: wire.AddrFrom(1, 2, 3, 4), Dst: wire.AddrFrom(5, 6, 7, 8), TTL: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id.Nonce = uint16(i)
		if _, err := c.Encode(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	c := NewCodec(epoch)
	label, _ := c.Encode(ID{Time: epoch.Add(time.Hour), VP: wire.AddrFrom(1, 2, 3, 4), TTL: 64, Nonce: 42})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(label); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAblationNoCollisions is the codec-width ablation DESIGN.md calls out:
// across a large random sample of identifier inputs, encoded labels must be
// injective (a collision would silently merge two decoys' evidence).
func TestAblationNoCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("large sample")
	}
	c := NewCodec(epoch)
	rng := rand.New(rand.NewSource(77))
	seen := make(map[string][5]uint32, 200000)
	for i := 0; i < 200000; i++ {
		id := ID{
			Time:  epoch.Add(time.Duration(rng.Int63n(60*24)) * time.Hour),
			VP:    wire.AddrFromUint32(rng.Uint32()),
			Dst:   wire.AddrFromUint32(rng.Uint32()),
			TTL:   uint8(rng.Intn(64) + 1),
			Nonce: uint16(rng.Intn(1 << 16)),
		}
		label, err := c.Encode(id)
		if err != nil {
			t.Fatal(err)
		}
		key := [5]uint32{uint32(id.Time.Unix()), id.VP.Uint32(), id.Dst.Uint32(), uint32(id.TTL), uint32(id.Nonce)}
		if prev, ok := seen[label]; ok && prev != key {
			t.Fatalf("collision: %q encodes both %v and %v", label, prev, key)
		}
		seen[label] = key
	}
}

// FuzzIdentifierRoundTrip checks the codec both ways. Any identifier
// inside the epoch window must survive Encode → Decode unchanged, and
// AppendEncode must render the same label Encode does. Decode must never
// panic on an arbitrary string, and any ID it accepts must itself survive
// a round trip. The send log and the honeypot pre-filter key on these
// labels, and the realnet honeypot decodes whatever scanners send.
//
//	go test -run '^$' -fuzz FuzzIdentifierRoundTrip -fuzztime 10s ./internal/identifier
func FuzzIdentifierRoundTrip(f *testing.F) {
	c := NewCodec(epoch)
	good, err := c.Encode(ID{Time: epoch.Add(42 * time.Hour), VP: wire.AddrFrom(100, 64, 3, 7), Dst: wire.AddrFrom(77, 88, 8, 8), TTL: 17, Nonce: 9982})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(151200), uint32(0x64400307), uint32(0x4D580808), uint8(17), uint16(9982), good)
	f.Add(uint32(0), uint32(0), uint32(0), uint8(0), uint16(0), good[:EncodedLen])
	f.Add(uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), uint32(0xFFFFFFFF), uint8(255), uint16(65535), "")
	f.Add(uint32(1), uint32(2), uint32(3), uint8(4), uint16(5), strings.ToUpper(good))
	f.Add(uint32(1), uint32(2), uint32(3), uint8(4), uint16(5), good+"-"+good)
	f.Add(uint32(1), uint32(2), uint32(3), uint8(4), uint16(5), strings.Repeat("x9q4zk7m2v", 7))

	f.Fuzz(func(t *testing.T, secs, vp, dst uint32, ttl uint8, nonce uint16, label string) {
		id := ID{
			Time: epoch.Add(time.Duration(secs) * time.Second),
			VP:   wire.AddrFrom(byte(vp>>24), byte(vp>>16), byte(vp>>8), byte(vp)),
			Dst:  wire.AddrFrom(byte(dst>>24), byte(dst>>16), byte(dst>>8), byte(dst)),
			TTL:  ttl, Nonce: nonce,
		}
		enc, err := c.Encode(id)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", id, err)
		}
		if app, err := c.AppendEncode([]byte("prefix."), id); err != nil || string(app) != "prefix."+enc {
			t.Fatalf("AppendEncode = %q, %v; want %q", app, err, "prefix."+enc)
		}
		if len(enc) != labelLen || !IsIdentifierLabel(enc) {
			t.Fatalf("Encode(%+v) = %q: not identifier-shaped", id, enc)
		}
		got, err := c.Decode(enc)
		if err != nil || !sameID(got, id) {
			t.Fatalf("Decode(Encode(%+v)) = %+v, %v", id, got, err)
		}

		dec, err := c.Decode(label)
		if err != nil {
			return
		}
		again, err := c.Encode(dec)
		if err != nil {
			t.Fatalf("Decode(%q) = %+v, which Encode refuses: %v", label, dec, err)
		}
		if back, err := c.Decode(again); err != nil || !sameID(back, dec) {
			t.Fatalf("accepted label %q: %+v does not round-trip (%+v, %v)", label, dec, back, err)
		}
	})
}

// sameID compares identifiers field by field, times by instant.
func sameID(a, b ID) bool {
	return a.Time.Equal(b.Time) && a.VP == b.VP && a.Dst == b.Dst && a.TTL == b.TTL && a.Nonce == b.Nonce
}
