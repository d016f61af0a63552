package correlate

import (
	"reflect"
	"testing"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/honeypot"
	"shadowmeter/internal/identifier"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/wire"
)

var (
	epoch = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	codec = identifier.NewCodec(epoch)
	vp    = wire.MustParseAddr("100.64.0.1")
	dst   = wire.Endpoint{Addr: wire.MustParseAddr("77.88.8.8"), Port: 53}
)

// mkSent builds a Phase I decoy record, applies set, and then encodes its
// label from the fields set left it with.
func mkSent(tb testing.TB, proto decoy.Protocol, nonce uint16, set ...func(*Sent)) *Sent {
	tb.Helper()
	s := &Sent{
		Protocol: proto, VP: vp, Dst: dst, DstName: "Yandex",
		Time: epoch, TTL: 64, Phase: PhaseI,
		ExpectRecursion: proto == decoy.DNS, // Phase I decoys to a resolver
	}
	for _, f := range set {
		f(s)
	}
	id := identifier.ID{Time: s.Time, VP: s.VP, Dst: s.Dst.Addr, TTL: s.TTL, Nonce: nonce}
	label, err := codec.Encode(id)
	if err != nil {
		tb.Fatal(err)
	}
	s.Label, s.Domain = label, label+".www.experiment.domain"
	return s
}

func TestPhaseIIProbeFirstDNSUnsolicited(t *testing.T) {
	// A TTL-limited Phase II probe never reaches the resolver, so no
	// recursion is expected: even the first DNS re-appearance of its name
	// is unsolicited (the probe itself is rule iii's "earlier query").
	c := New(codec)
	s := mkSent(t, decoy.DNS, 99, func(s *Sent) {
		s.Phase = PhaseII
		s.TTL = 4
		s.ExpectRecursion = false
	})
	c.AddSent(s)
	got := c.Classify([]honeypot.Capture{capture(s, decoy.DNS, epoch.Add(30*time.Minute))})
	if len(got) != 1 || got[0].Rule != 3 {
		t.Fatalf("got = %+v", got)
	}
}

func capture(s *Sent, proto decoy.Protocol, at time.Time) honeypot.Capture {
	return honeypot.Capture{
		Time: at, Location: "US", Protocol: proto,
		Source: wire.Endpoint{Addr: wire.MustParseAddr("8.8.4.4"), Port: 3333},
		Domain: s.Domain, Label: s.Label,
	}
}

func TestRule3RepeatedDNS(t *testing.T) {
	c := New(codec)
	s := mkSent(t, decoy.DNS, 1)
	c.AddSent(s)
	caps := []honeypot.Capture{
		capture(s, decoy.DNS, epoch.Add(time.Second)),   // solicited recursion
		capture(s, decoy.DNS, epoch.Add(5*time.Second)), // unsolicited repeat
		capture(s, decoy.DNS, epoch.Add(48*time.Hour)),  // unsolicited, days later
	}
	got := c.Classify(caps)
	if len(got) != 2 {
		t.Fatalf("unsolicited = %d, want 2", len(got))
	}
	for _, u := range got {
		if u.Rule != 3 || u.Combination != "DNS-DNS" {
			t.Errorf("event = %+v", u)
		}
	}
	if got[1].Delay != 48*time.Hour {
		t.Errorf("delay = %v", got[1].Delay)
	}
	st := c.Stats()
	if st.Solicited != 1 || st.Unsolicited != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRule2HTTPAtHoneypot(t *testing.T) {
	c := New(codec)
	s := mkSent(t, decoy.DNS, 2)
	c.AddSent(s)
	got := c.Classify([]honeypot.Capture{capture(s, decoy.HTTP, epoch.Add(10*24*time.Hour))})
	if len(got) != 1 || got[0].Rule != 2 || got[0].Combination != "DNS-HTTP" {
		t.Fatalf("got = %+v", got)
	}
}

func TestHTTPSCombinationName(t *testing.T) {
	c := New(codec)
	s := mkSent(t, decoy.HTTP, 3)
	c.AddSent(s)
	got := c.Classify([]honeypot.Capture{capture(s, decoy.TLS, epoch.Add(time.Hour))})
	if len(got) != 1 || got[0].Combination != "HTTP-HTTPS" {
		t.Fatalf("got = %+v", got)
	}
}

func TestRule1CrossProtocolDNS(t *testing.T) {
	// A TLS decoy's domain showing up as a DNS query: rule i (protocols
	// differ) — even the first DNS appearance is unsolicited.
	c := New(codec)
	s := mkSent(t, decoy.TLS, 4)
	c.AddSent(s)
	got := c.Classify([]honeypot.Capture{capture(s, decoy.DNS, epoch.Add(time.Minute))})
	if len(got) != 1 || got[0].Rule != 1 || got[0].Combination != "TLS-DNS" {
		t.Fatalf("got = %+v", got)
	}
}

func TestUnknownLabelIgnored(t *testing.T) {
	c := New(codec)
	s := mkSent(t, decoy.DNS, 5)
	// Never AddSent: capture with a valid label that was never emitted.
	got := c.Classify([]honeypot.Capture{capture(s, decoy.HTTP, epoch.Add(time.Hour))})
	if len(got) != 0 {
		t.Fatalf("got = %+v", got)
	}
	if c.Stats().UnknownLabel != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestChecksumRejected(t *testing.T) {
	c := New(codec)
	s := mkSent(t, decoy.DNS, 6)
	c.AddSent(s)
	cap := capture(s, decoy.HTTP, epoch.Add(time.Hour))
	// Corrupt the label plausibly (still identifier-shaped).
	mut := []byte(cap.Label)
	if mut[0] == 'a' {
		mut[0] = 'b'
	} else {
		mut[0] = 'a'
	}
	cap.Label = string(mut)
	got := c.Classify([]honeypot.Capture{cap})
	if len(got) != 0 || c.Stats().ChecksumRejected != 1 {
		t.Fatalf("got=%d stats=%+v", len(got), c.Stats())
	}
}

func TestOutOfOrderCapturesSorted(t *testing.T) {
	c := New(codec)
	s := mkSent(t, decoy.DNS, 7)
	c.AddSent(s)
	// Later repeat listed first: sorting must still classify the earliest
	// DNS capture as the solicited one.
	caps := []honeypot.Capture{
		capture(s, decoy.DNS, epoch.Add(time.Hour)),
		capture(s, decoy.DNS, epoch.Add(time.Second)),
	}
	got := c.Classify(caps)
	if len(got) != 1 {
		t.Fatalf("unsolicited = %d, want 1", len(got))
	}
	if got[0].Delay != time.Hour {
		t.Errorf("the repeat (1h) should be unsolicited, got delay %v", got[0].Delay)
	}
}

func TestIncrementalClassification(t *testing.T) {
	c := New(codec)
	s := mkSent(t, decoy.DNS, 8)
	c.AddSent(s)
	first := c.Classify([]honeypot.Capture{capture(s, decoy.DNS, epoch.Add(time.Second))})
	if len(first) != 0 {
		t.Fatalf("first batch flagged: %+v", first)
	}
	second := c.Classify([]honeypot.Capture{capture(s, decoy.DNS, epoch.Add(time.Hour))})
	if len(second) != 1 || second[0].Rule != 3 {
		t.Fatalf("rule-iii state lost across batches: %+v", second)
	}
}

func TestLeakedLabelsAndPerDecoyCounts(t *testing.T) {
	c := New(codec)
	s := mkSent(t, decoy.DNS, 11)
	c.AddSent(s)
	events := c.Classify([]honeypot.Capture{
		capture(s, decoy.DNS, epoch.Add(time.Second)),    // solicited
		capture(s, decoy.DNS, epoch.Add(30*time.Minute)), // unsolicited, <1h
		capture(s, decoy.HTTP, epoch.Add(2*time.Hour)),
		capture(s, decoy.HTTP, epoch.Add(3*time.Hour)),
		capture(s, decoy.TLS, epoch.Add(4*time.Hour)),
	})
	leaked := LeakedLabels(events)
	if !leaked[s.Label] || len(leaked) != 1 {
		t.Errorf("leaked = %v", leaked)
	}
	counts := PerDecoyCounts(events, time.Hour)
	if counts[s.Label] != 3 {
		t.Errorf("counts(>=1h) = %d, want 3", counts[s.Label])
	}
	all := PerDecoyCounts(events, 0)
	if all[s.Label] != 4 {
		t.Errorf("counts(all) = %d, want 4", all[s.Label])
	}
}

func TestLabelCollisionKeepsFirstRecord(t *testing.T) {
	// The identifier nonce is a uint16, so two live decoys can share a
	// label at campaign scale. The first record must win: replacing it
	// would misattribute every later capture of the older decoy.
	c := New(codec)
	set := telemetry.NewSet()
	c.Bind(set)
	first := mkSent(t, decoy.DNS, 12)
	dup := mkSent(t, decoy.DNS, 12) // same nonce -> same label
	dup.DstName = "impostor"
	dup.Time = epoch.Add(time.Hour)
	c.AddSent(first)
	c.AddSent(dup)

	st := c.Stats()
	if st.SentDecoys != 1 {
		t.Errorf("SentDecoys = %d, want 1 (dup must not count)", st.SentDecoys)
	}
	if st.LabelCollisions != 1 {
		t.Errorf("LabelCollisions = %d, want 1", st.LabelCollisions)
	}
	got, ok := c.SentByLabel(first.Label)
	if !ok || got.DstName != first.DstName || !got.Time.Equal(first.Time) {
		t.Fatalf("SentByLabel = %+v, want the first record kept", got)
	}
	for _, m := range set.Registry.Snapshot() {
		if m.Name == "correlate_label_collisions_total" {
			if m.Value != 1 {
				t.Errorf("collision counter = %d, want 1", m.Value)
			}
			return
		}
	}
	t.Error("correlate_label_collisions_total not registered in bound set")
}

func BenchmarkClassify(b *testing.B) {
	c := New(codec)
	var caps []honeypot.Capture
	for i := 0; i < 1000; i++ {
		s := mkSent(b, decoy.DNS, uint16(i))
		c.AddSent(s)
		caps = append(caps, honeypot.Capture{
			Time: epoch.Add(time.Duration(i) * time.Second), Protocol: decoy.HTTP,
			Domain: s.Domain, Label: s.Label,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(caps)
	}
}

// TestSentByLabelRebuildsRecord checks that the send log gives back every
// field AddSent was handed, re-encoding the label into the domain, and
// that all events of a leaked decoy share one record.
func TestSentByLabelRebuildsRecord(t *testing.T) {
	c := New(codec)
	prefixed := mkSent(t, decoy.DNS, 7, func(s *Sent) {
		s.Time = epoch.Add(90*time.Minute + 123456789*time.Nanosecond)
	})
	other := mkSent(t, decoy.HTTP, 8, func(s *Sent) {
		s.Phase, s.TTL, s.ExpectRecursion = PhaseII, 5, false
	})
	for _, s := range []*Sent{prefixed, other} {
		c.AddSent(s)
	}
	for _, want := range []*Sent{prefixed, other} {
		got, ok := c.SentByLabel(want.Label)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("SentByLabel(%q) = %+v, %v; want %+v", want.Label, got, ok, want)
		}
	}
	if _, ok := c.SentByLabel(prefixed.Label[:10]); ok {
		t.Error("SentByLabel matched a label prefix")
	}

	// A record must carry its own identifier label, as a prefix of its
	// domain; the log keeps no text to fall back on.
	unrelated := mkSent(t, decoy.HTTP, 9)
	unrelated.Domain = "unrelated.example"
	bare := &Sent{Label: "not-an-identifier", Protocol: decoy.TLS, Time: epoch}
	for _, s := range []*Sent{unrelated, bare} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddSent(%q, %q) did not panic", s.Label, s.Domain)
				}
			}()
			c.AddSent(s)
		}()
	}

	events := c.Classify([]honeypot.Capture{
		capture(other, decoy.HTTP, epoch.Add(time.Hour)),
		capture(other, decoy.TLS, epoch.Add(2*time.Hour)),
	})
	if len(events) != 2 || events[0].Sent != events[1].Sent {
		t.Fatalf("events of one decoy do not share its record: %+v", events)
	}
	if s, _ := c.SentByLabel(other.Label); s != events[0].Sent {
		t.Error("SentByLabel of a leaked decoy is not the record its events share")
	}
}
