package correlate

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/honeypot"
	"shadowmeter/internal/wire"
)

const zoneSuffix = ".www.experiment.domain"

// sendLogRecords returns n decoy records shaped like the experiment's:
// Phase I decoys at TTL 64 and Phase II probes at TTL 1..24, from a few
// VPs to resolvers, web sites and an ODoH proxy (whose records name the
// resolver in the label and the proxy in Dst). Nonces come from a small
// range, so many records share a (second, nonce) pair, and about one in
// ten repeats an earlier label of the same second with other fields, as
// a wrapped uint16 nonce would.
func sendLogRecords(tb testing.TB, rng *rand.Rand, n int) []*Sent {
	tb.Helper()
	vps := []wire.Addr{vp, wire.MustParseAddr("100.64.0.2"), wire.MustParseAddr("100.65.3.9")}
	type dest struct {
		name  string
		label wire.Addr
		dst   wire.Endpoint
		proto decoy.Protocol
	}
	resolver := wire.MustParseAddr("77.88.8.8")
	site := wire.MustParseAddr("203.0.113.80")
	dests := []dest{
		{"Yandex", resolver, wire.Endpoint{Addr: resolver, Port: 53}, decoy.DNS},
		{"Google", wire.MustParseAddr("8.8.8.8"), wire.Endpoint{Addr: wire.MustParseAddr("8.8.8.8"), Port: 53}, decoy.DNS},
		{"Yandex", resolver, wire.Endpoint{Addr: wire.MustParseAddr("198.51.100.7"), Port: 443}, decoy.DNS}, // ODoH
		{"example.org", site, wire.Endpoint{Addr: site, Port: 80}, decoy.HTTP},
		{"example.org", site, wire.Endpoint{Addr: site, Port: 443}, decoy.TLS},
	}
	var out []*Sent
	for i := 0; i < n; i++ {
		at := epoch.Add(time.Duration(i/8)*time.Second + time.Duration(rng.Intn(1e9)))
		if k := len(out); k > 0 && rng.Intn(10) == 0 {
			prev := out[k-1-rng.Intn(min(k, 8))]
			if prev.Time.Unix() == at.Unix() {
				dup := *prev
				dup.Time = prev.Time.Truncate(time.Second).Add(time.Duration(rng.Intn(1e9)))
				dup.DstName = "impostor"
				dup.Protocol = decoy.Protocol(rng.Intn(3))
				out = append(out, &dup)
				continue
			}
		}
		d := dests[rng.Intn(len(dests))]
		phase, ttl := PhaseI, uint8(64)
		if rng.Intn(3) == 0 {
			phase, ttl = PhaseII, uint8(1+rng.Intn(24))
		}
		out = append(out, mkSent(tb, d.proto, uint16(rng.Intn(6)), func(s *Sent) {
			s.VP = vps[rng.Intn(len(vps))]
			s.Dst = wire.Endpoint{Addr: d.label, Port: d.dst.Port}
			s.DstName, s.Time, s.TTL, s.Phase = d.name, at, ttl, phase
			s.ExpectRecursion = phase == PhaseI && d.proto == decoy.DNS && rng.Intn(4) != 0
		}))
		out[len(out)-1].Dst = d.dst
	}
	return out
}

// foreignLabels are strings no send log holds a record for: corrupt,
// truncated, extended and non-canonical variants of label, and the label
// of a decoy that was never sent.
func foreignLabels(tb testing.TB, label string) []string {
	body := label[:strings.IndexByte(label, '-')]
	flipped := []byte(label)
	flipped[3] ^= 1
	unsent := mkSent(tb, decoy.DNS, 0xFFFF)
	return []string{
		"", "www", "not-an-identifier", body, body + "-", body + "-0000", body + "-junk",
		label + "x", label[:len(label)-1], strings.ToUpper(label), string(flipped),
		label + zoneSuffix, unsent.Label,
	}
}

// captureStream returns n captures in time order, each carrying a label
// from labels (or, one in eight, a foreign string) over a random protocol.
func captureStream(tb testing.TB, rng *rand.Rand, labels []string, n int) []honeypot.Capture {
	caps := make([]honeypot.Capture, n)
	for i := range caps {
		label := labels[rng.Intn(len(labels))]
		if rng.Intn(8) == 0 {
			f := foreignLabels(tb, label)
			label = f[rng.Intn(len(f))]
		}
		caps[i] = honeypot.Capture{
			Time: epoch.Add(time.Duration(i) * time.Second), Location: "US",
			Protocol: decoy.Protocol(rng.Intn(3)), Domain: label + zoneSuffix, Label: label,
		}
	}
	return caps
}

// sameSentByLabel checks that c and ref answer SentByLabel alike for
// every label and its foreign variants.
func sameSentByLabel(t *testing.T, c *Correlator, ref *refCorrelator, labels []string) {
	t.Helper()
	for _, label := range labels {
		for _, l := range append([]string{label}, foreignLabels(t, label)...) {
			got, ok := c.SentByLabel(l)
			want, wantOK := ref.SentByLabel(l)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("SentByLabel(%q) = %+v, %v; reference %+v, %v", l, got, ok, want, wantOK)
			}
		}
	}
}

// sameEvents checks that got and want are the same events, and that
// events share a *Sent exactly when the reference's do.
func sameEvents(t *testing.T, got, want []Unsolicited) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("Classify gave %d events, reference %d", len(got), len(want))
	}
	gotShared, wantShared := map[*Sent]*Sent{}, map[*Sent]*Sent{}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d = %+v, reference %+v", i, got[i], want[i])
		}
		g, w := got[i].Sent, want[i].Sent
		if gotShared[g] == nil && wantShared[w] == nil {
			gotShared[g], wantShared[w] = w, g
		}
		if gotShared[g] != w || wantShared[w] != g {
			t.Fatalf("event %d (%s) shares its record differently from the reference", i, got[i].Capture.Label)
		}
	}
}

func TestSendLogMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	recs := sendLogRecords(t, rng, 20000)
	labels := make([]string, len(recs))
	for i, s := range recs {
		labels[i] = s.Label
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })

	c, ref := New(codec), newRefCorrelator(codec)
	for _, s := range recs {
		c.AddSent(s)
		ref.AddSent(s)
	}
	if c.Stats().LabelCollisions == 0 {
		t.Fatal("the records hold no duplicate label")
	}
	sameSentByLabel(t, c, ref, labels)

	caps := captureStream(t, rng, labels, 60000)
	for len(caps) > 0 {
		n := min(len(caps), 1+rng.Intn(20000))
		sameEvents(t, c.Classify(caps[:n]), ref.Classify(caps[:n]))
		caps = caps[n:]
	}
	if got, want := c.Stats(), ref.stats; got != want {
		t.Fatalf("Stats = %+v, reference %+v", got, want)
	}
	sameSentByLabel(t, c, ref, labels)
}

func FuzzSendLog(f *testing.F) {
	recs := sendLogRecords(f, rand.New(rand.NewSource(1)), 64)
	for i, s := range recs {
		f.Add(s.Label, uint8(i%3))
		for _, l := range foreignLabels(f, s.Label)[i%13:][:1] {
			f.Add(l, uint8(i%3))
		}
	}
	f.Fuzz(func(t *testing.T, label string, proto uint8) {
		c, ref := New(codec), newRefCorrelator(codec)
		for _, s := range recs {
			c.AddSent(s)
			ref.AddSent(s)
		}
		got, ok := c.SentByLabel(label)
		want, wantOK := ref.SentByLabel(label)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("SentByLabel(%q) = %+v, %v; reference %+v, %v", label, got, ok, want, wantOK)
		}
		caps := []honeypot.Capture{
			{Time: epoch.Add(time.Minute), Protocol: decoy.Protocol(proto % 3), Domain: label + zoneSuffix, Label: label},
			{Time: epoch.Add(time.Hour), Protocol: decoy.DNS, Domain: label + zoneSuffix, Label: label},
		}
		sameEvents(t, c.Classify(caps), ref.Classify(caps))
		if got, want := c.Stats(), ref.stats; got != want {
			t.Fatalf("Stats = %+v, reference %+v", got, want)
		}
	})
}

// TestSendLogBytesPerDecoy holds the send log, index included, to 40 B
// per decoy. The records are a campaign's shape: sequential nonces, a few
// dozen decoys a second, many VPs and destinations.
func TestSendLogBytesPerDecoy(t *testing.T) {
	const n = 200000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(codec)
	for i := 0; i < n; i++ {
		c.AddSent(mkSent(t, decoy.Protocol(i%3), uint16(i), func(s *Sent) {
			s.Time = epoch.Add(time.Duration(i) * 37 * time.Millisecond)
			s.VP = wire.AddrFromUint32(vp.Uint32() + uint32(i%400))
			s.Dst.Addr = wire.AddrFromUint32(dst.Addr.Uint32() + uint32(i%300))
		}))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := c.Stats().SentDecoys; got != n {
		t.Fatalf("SentDecoys = %d, want %d", got, n)
	}
	perDecoy := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("send log: %.1f B per decoy", perDecoy)
	if perDecoy > 40 {
		t.Errorf("send log takes %.1f B per decoy, want at most 40", perDecoy)
	}
	runtime.KeepAlive(c)
}
