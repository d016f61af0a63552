package decoy

import (
	"testing"
	"time"

	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/tlswire"
	"shadowmeter/internal/wire"
)

// sniffPorts maps the fuzzer's port selector to the three decoy ports and
// one port no sniffer reads.
var sniffPorts = [4]uint16{53, 80, 443, 8080}

// fullSniff is what an observer tap promises to compute, spelled out with
// the full decoders: the first question name of a DNS query, the Host header
// of an HTTP request, the SNI of a TLS ClientHello, canonicalized.
func fullSniff(dstPort uint16, payload []byte) (string, Protocol, bool) {
	switch dstPort {
	case 53:
		msg, err := dnswire.Decode(payload)
		if err != nil || msg.Header.QR || len(msg.Questions) == 0 {
			return "", 0, false
		}
		return msg.QName(), DNS, true
	case 80:
		req, err := httpwire.ParseRequest(payload)
		if err != nil || req.Host() == "" {
			return "", 0, false
		}
		return dnswire.Canonical(req.Host()), HTTP, true
	case 443:
		ch, err := tlswire.ParseClientHello(payload)
		if err != nil || ch.ServerName == "" {
			return "", 0, false
		}
		return dnswire.Canonical(ch.ServerName), TLS, true
	}
	return "", 0, false
}

// FuzzSniffAgree is the differential check on the observer-tap fast
// paths: for any payload on any port, PortProtocol plus ExtractDomain and
// the full DNS, HTTP and TLS decoders must extract the same domain and
// protocol, or both reject. A disagreement would attribute a shadowed
// capture to the wrong decoy.
//
//	go test -run '^$' -fuzz FuzzSniffAgree -fuzztime 10s ./internal/decoy
func FuzzSniffAgree(f *testing.F) {
	g := NewGenerator("experiment.domain", time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC))
	now := time.Date(2024, 3, 2, 0, 0, 0, 0, time.UTC)
	vp := wire.AddrFrom(100, 64, 0, 1)
	for i, proto := range Protocols {
		d, err := g.Generate(proto, now, vp, wire.Endpoint{Addr: wire.AddrFrom(77, 88, 8, 8), Port: sniffPorts[i]}, 64)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), d.Payload)
		f.Add(uint8(3), d.Payload)
	}
	ech, err := g.GenerateECH(now, vp, wire.Endpoint{Addr: wire.AddrFrom(1, 2, 3, 4), Port: 443}, 64)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(2), ech.Payload)
	doh, err := g.GenerateDoH(now, vp, wire.Endpoint{Addr: wire.AddrFrom(1, 1, 1, 1), Port: 53}, 64)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(1), doh.Payload)
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte("GET / HTTP/1.1\r\nHost: A.Example.\r\nhost: b.example\r\n\r\n"))
	f.Add(uint8(1), []byte("POST /x HTTP/1.1\r\nHost: c.example\r\nContent-Length: 4\r\n\r\nab"))
	// A signed and a superseded Content-Length: the tap once rejected both
	// while the full parser accepted them.
	f.Add(uint8(1), []byte("GET / HTTP/1.1\r\nHost: d.example\r\nContent-Length: +0\r\n\r\n"))
	f.Add(uint8(1), []byte("GET / HTTP/1.1\r\nHost: e.example\r\nContent-Length: x\r\nContent-Length: 0\r\n\r\n"))
	f.Add(uint8(0), []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 'W', 'w', 'W', 0xC0, 12, 0, 1, 0, 1})

	f.Fuzz(func(t *testing.T, sel uint8, payload []byte) {
		port := sniffPorts[sel%4]
		want, wantProto, wantOK := fullSniff(port, payload)
		got, proto, ok := sniff(port, payload)
		if ok != wantOK || (ok && (got != want || proto != wantProto)) {
			t.Fatalf("port %d: tap = (%q, %v, %v), full decoders = (%q, %v, %v)",
				port, got, proto, ok, want, wantProto, wantOK)
		}
	})
}
