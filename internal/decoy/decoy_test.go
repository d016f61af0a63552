package decoy

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/tlswire"
	"shadowmeter/internal/wire"
)

var (
	epoch = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	vp    = wire.MustParseAddr("100.64.1.2")
	dst   = wire.Endpoint{Addr: wire.MustParseAddr("77.88.8.8"), Port: 53}
)

func gen() *Generator { return NewGenerator("experiment.domain", epoch) }

func TestGenerateDNS(t *testing.T) {
	g := gen()
	d, err := g.Generate(DNS, epoch.Add(time.Hour), vp, dst, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(d.Domain, ".www.experiment.domain") {
		t.Errorf("domain = %q", d.Domain)
	}
	msg, err := dnswire.Decode(d.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if msg.QName() != d.Domain {
		t.Errorf("QNAME = %q, want %q", msg.QName(), d.Domain)
	}
	if msg.QType() != dnswire.TypeA || !msg.Header.RD {
		t.Errorf("query shape: %+v", msg.Header)
	}
	// The identifier must round-trip through the codec.
	id, err := g.Codec().Decode(d.Label)
	if err != nil {
		t.Fatal(err)
	}
	if id.VP != vp || id.Dst != dst.Addr || id.TTL != 64 {
		t.Errorf("identifier = %+v", id)
	}
}

func TestGenerateHTTP(t *testing.T) {
	g := gen()
	d, err := g.Generate(HTTP, epoch.Add(time.Minute), vp, wire.Endpoint{Addr: wire.MustParseAddr("203.0.113.1"), Port: 80}, 32)
	if err != nil {
		t.Fatal(err)
	}
	domain, ok := ExtractDomain(HTTP, d.Payload)
	if !ok || domain != d.Domain {
		t.Errorf("extracted %q, want %q", domain, d.Domain)
	}
}

func TestGenerateTLS(t *testing.T) {
	g := gen()
	d, err := g.Generate(TLS, epoch.Add(time.Minute), vp, wire.Endpoint{Addr: wire.MustParseAddr("203.0.113.1"), Port: 443}, 16)
	if err != nil {
		t.Fatal(err)
	}
	domain, ok := ExtractDomain(TLS, d.Payload)
	if !ok || domain != d.Domain {
		t.Errorf("extracted %q, want %q", domain, d.Domain)
	}
}

func TestTLSRandomDeterministic(t *testing.T) {
	g1, g2 := gen(), gen()
	d1, err := g1.Generate(TLS, epoch.Add(time.Minute), vp, dst, 16)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := g2.Generate(TLS, epoch.Add(time.Minute), vp, dst, 16)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1.Payload) != string(d2.Payload) {
		t.Error("same inputs should produce identical TLS decoys")
	}
}

func TestDomainsUnique(t *testing.T) {
	g := gen()
	seen := make(map[string]bool)
	for i := 0; i < 2000; i++ {
		d, err := g.Generate(DNS, epoch.Add(time.Duration(i)*time.Second), vp, dst, 64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[d.Domain] {
			t.Fatalf("duplicate domain at %d: %s", i, d.Domain)
		}
		seen[d.Domain] = true
	}
}

func TestTTLEncodedPerDecoy(t *testing.T) {
	g := gen()
	for ttl := uint8(1); ttl <= 64; ttl += 7 {
		d, err := g.Generate(DNS, epoch.Add(time.Hour), vp, dst, ttl)
		if err != nil {
			t.Fatal(err)
		}
		id, err := g.Codec().Decode(d.Label)
		if err != nil {
			t.Fatal(err)
		}
		if id.TTL != ttl {
			t.Errorf("TTL = %d, want %d", id.TTL, ttl)
		}
	}
}

func TestExtractDomainRejects(t *testing.T) {
	if _, ok := ExtractDomain(DNS, []byte("junk")); ok {
		t.Error("junk DNS accepted")
	}
	if _, ok := ExtractDomain(HTTP, []byte("junk")); ok {
		t.Error("junk HTTP accepted")
	}
	if _, ok := ExtractDomain(TLS, []byte("junk")); ok {
		t.Error("junk TLS accepted")
	}
	// A DNS response (QR=1) is not a decoy-shaped query.
	g := gen()
	d, _ := g.Generate(DNS, epoch, vp, dst, 64)
	msg, _ := dnswire.Decode(d.Payload)
	resp := dnswire.NewResponse(msg, dnswire.RcodeNoError)
	raw, _ := resp.Encode()
	if _, ok := ExtractDomain(DNS, raw); ok {
		t.Error("DNS response should not extract as decoy")
	}
}

// sniff is what an observer tap runs on a packet: the destination port's
// protocol, then that protocol's extractor.
func sniff(dstPort uint16, payload []byte) (string, Protocol, bool) {
	proto, ok := PortProtocol(dstPort)
	if !ok {
		return "", 0, false
	}
	domain, ok := ExtractDomain(proto, payload)
	if !ok {
		return "", 0, false
	}
	return domain, proto, true
}

func TestSniffDomainPortDispatch(t *testing.T) {
	g := gen()
	dDNS, _ := g.Generate(DNS, epoch, vp, dst, 64)
	dHTTP, _ := g.Generate(HTTP, epoch, vp, dst, 64)
	dTLS, _ := g.Generate(TLS, epoch, vp, dst, 64)

	if dom, proto, ok := sniff(53, dDNS.Payload); !ok || proto != DNS || dom != dDNS.Domain {
		t.Errorf("port 53 sniff: %q %v %v", dom, proto, ok)
	}
	if dom, proto, ok := sniff(80, dHTTP.Payload); !ok || proto != HTTP || dom != dHTTP.Domain {
		t.Errorf("port 80 sniff: %q %v %v", dom, proto, ok)
	}
	if dom, proto, ok := sniff(443, dTLS.Payload); !ok || proto != TLS || dom != dTLS.Domain {
		t.Errorf("port 443 sniff: %q %v %v", dom, proto, ok)
	}
	// Wrong port: no extraction.
	if _, _, ok := sniff(22, dDNS.Payload); ok {
		t.Error("port 22 should not sniff")
	}
	if _, _, ok := sniff(80, dDNS.Payload); ok {
		t.Error("DNS bytes on port 80 should not parse as HTTP")
	}
}

func TestPacerRateLimit(t *testing.T) {
	p := NewPacer(2) // 2/s -> 500ms interval
	target := dst.Addr
	now := epoch
	t1 := p.NextSendTime(now, target)
	t2 := p.NextSendTime(now, target)
	t3 := p.NextSendTime(now, target)
	if !t1.Equal(now) {
		t.Errorf("t1 = %v", t1)
	}
	if d := t2.Sub(t1); d != 500*time.Millisecond {
		t.Errorf("t2-t1 = %v", d)
	}
	if d := t3.Sub(t2); d != 500*time.Millisecond {
		t.Errorf("t3-t2 = %v", d)
	}
	// A different target is not throttled.
	other := wire.MustParseAddr("8.8.8.8")
	if got := p.NextSendTime(now, other); !got.Equal(now) {
		t.Errorf("other target delayed: %v", got)
	}
}

func TestPacerAdvancesWithClock(t *testing.T) {
	p := NewPacer(2)
	target := dst.Addr
	p.NextSendTime(epoch, target)
	// If the clock has moved past the reserved slot, no delay is added.
	later := epoch.Add(10 * time.Second)
	if got := p.NextSendTime(later, target); !got.Equal(later) {
		t.Errorf("got %v, want %v", got, later)
	}
}

func TestProtocolString(t *testing.T) {
	if DNS.String() != "DNS" || HTTP.String() != "HTTP" || TLS.String() != "TLS" {
		t.Error("protocol names")
	}
	if Protocol(9).String() != "Protocol(9)" {
		t.Error("unknown protocol name")
	}
}

// BenchmarkGenerate builds one decoy per protocol. Each costs three
// allocations: the Decoy, its domain string and its exactly sized payload.
func BenchmarkGenerate(b *testing.B) {
	for _, p := range Protocols {
		b.Run(p.String(), func(b *testing.B) {
			g := gen()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Generate(p, epoch.Add(time.Duration(i)), vp, dst, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGeneratePayloadsMatchMessageEncoders holds every decoy payload to the
// message-based encoders the exactly sized ones replace: a DNS query built
// with NewQuery, a GET with NewGET, a ClientHello with NewClientHello, and
// the ECH hello with NewClientHelloECH.
func TestGeneratePayloadsMatchMessageEncoders(t *testing.T) {
	g := gen()
	for i := 0; i < 300; i++ {
		p := Protocols[i%len(Protocols)]
		at := epoch.Add(time.Duration(i) * 7919 * time.Second)
		to := wire.Endpoint{Addr: wire.AddrFrom(203, 0, byte(i), byte(i*7)), Port: 443}
		d, err := g.Generate(p, at, vp, to, uint8(i))
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		switch p {
		case DNS:
			want, err = dnswire.NewQuery(d.DNSQueryID, d.Domain, dnswire.TypeA).Encode()
		case HTTP:
			want = httpwire.NewGET(d.Domain, "/").Encode()
		case TLS:
			want, err = tlswire.NewClientHello(d.Domain, clientRandom(d.ID)).Encode()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.Payload, want) || len(d.Payload) != cap(d.Payload) {
			t.Fatalf("%v decoy %d payload %x (cap %d), want %x", p, i, d.Payload, cap(d.Payload), want)
		}
		e, err := g.GenerateECH(at, vp, to, uint8(i))
		if err != nil {
			t.Fatal(err)
		}
		if want, err = tlswire.NewClientHelloECH(e.Domain, clientRandom(e.ID)).Encode(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Payload, want) {
			t.Fatalf("ECH decoy %d payload %x, want %x", i, e.Payload, want)
		}
	}
}

func BenchmarkSniffTLS(b *testing.B) {
	g := gen()
	d, _ := g.Generate(TLS, epoch, vp, dst, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := sniff(443, d.Payload); !ok {
			b.Fatal("sniff failed")
		}
	}
}

func TestGenerateECHHidesDomainFromWire(t *testing.T) {
	g := gen()
	d, err := g.GenerateECH(epoch.Add(time.Hour), vp, wire.Endpoint{Addr: wire.MustParseAddr("203.0.113.1"), Port: 443}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Encrypted || d.Protocol != TLS {
		t.Errorf("decoy = %+v", d)
	}
	// DPI extraction must fail on the wire bytes.
	if _, _, ok := sniff(443, d.Payload); ok {
		t.Error("ECH decoy leaked a domain to DPI")
	}
	if strings.Contains(string(d.Payload), d.Label) {
		t.Error("identifier label appears in clear text")
	}
}

func TestGenerateDoHHidesQNAMEFromWire(t *testing.T) {
	g := gen()
	d, err := g.GenerateDoH(epoch.Add(time.Hour), vp, wire.Endpoint{Addr: wire.MustParseAddr("77.88.8.8"), Port: 53}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Encrypted || d.Protocol != DNS || d.Dst.Port != 443 {
		t.Errorf("decoy = %+v", d)
	}
	// Port-443 DPI tries TLS and fails; port-53 DPI never sees it.
	if _, _, ok := sniff(443, d.Payload); ok {
		t.Error("DoH decoy leaked a domain to DPI")
	}
	// The envelope parses as HTTP with the resolver-facing host, not the
	// decoy domain.
	req, err := httpwire.ParseRequest(d.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if req.Method != "POST" || req.Path != "/dns-query" {
		t.Errorf("envelope = %s %s", req.Method, req.Path)
	}
	if strings.Contains(req.Host(), d.Label) {
		t.Error("Host header carries the decoy label")
	}
	// The resolver can recover the inner query.
	msg, err := dnswire.Decode(req.Body)
	if err != nil {
		t.Fatal(err)
	}
	if msg.QName() != d.Domain {
		t.Errorf("inner QNAME = %q, want %q", msg.QName(), d.Domain)
	}
}
