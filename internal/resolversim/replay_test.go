package resolversim

import (
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/wire"
)

// wireLog is a tap that writes one line per packet crossing its router:
// virtual offset, endpoints, TCP flags and the transport payload in hex.
type wireLog struct{ lines []string }

func (w *wireLog) Observe(n *netsim.Network, _ *netsim.Router, pkt *wire.Packet) {
	at := n.Now().Sub(t0)
	switch {
	case pkt.UDP != nil:
		w.lines = append(w.lines, fmt.Sprintf("%v udp %v:%d>%v:%d %s", at,
			pkt.IP.Src, pkt.UDP.SrcPort, pkt.IP.Dst, pkt.UDP.DstPort, hex.EncodeToString(pkt.UDP.Payload())))
	case pkt.TCP != nil:
		w.lines = append(w.lines, fmt.Sprintf("%v tcp %v:%d>%v:%d f%02x %s", at,
			pkt.IP.Src, pkt.TCP.SrcPort, pkt.IP.Dst, pkt.TCP.DstPort, pkt.TCP.Flags, hex.EncodeToString(pkt.TCP.Payload())))
	}
}

// replayWorld routes every packet through one tapped router, so the
// transcript holds each query, upstream query, duplicate and reply.
func replayWorld() (*netsim.Network, *wireLog) {
	log := &wireLog{}
	r := &netsim.Router{Name: "tap", Addr: wire.MustParseAddr("192.0.2.254")}
	r.AttachTap(log)
	path := []*netsim.Router{r}
	n := netsim.New(netsim.Config{Start: t0, Path: func(_, _ wire.Addr) []*netsim.Router { return path }})
	return n, log
}

// replayTranscript drives one resolver through a cache miss, a cache hit
// (also with opcode 2 and RD clear, which the reply must echo), SERVFAIL
// for an unknown zone, an upstream timeout, ExtraRetries duplicates, DoH
// over the miss and hit paths, and a root referral.
func replayTranscript(t *testing.T) string {
	t.Helper()
	n, log := replayWorld()
	_, geo := testWorld()
	registry := NewRegistry()
	authAddr := wire.MustParseAddr("198.51.100.53")
	auth := netsim.NewHost(n, authAddr)
	auth.ServeUDP(53, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		q, err := dnswire.Decode(payload)
		if err != nil {
			return nil
		}
		resp := dnswire.NewResponse(q, dnswire.RcodeNoError)
		resp.Header.AA = true
		resp.Answers = append(resp.Answers,
			dnswire.RR{Name: q.QName(), Type: dnswire.TypeA, TTL: 600, Addr: wire.MustParseAddr("203.0.113.10")},
			dnswire.RR{Name: q.QName(), Type: dnswire.TypeA, TTL: 600, Addr: wire.MustParseAddr("203.0.113.11")})
		raw, _ := resp.Encode()
		return raw
	})
	registry.Delegate("experiment.domain", authAddr)
	// An authoritative server that never answers: every recursion toward
	// it times out.
	silent := netsim.NewHost(n, wire.MustParseAddr("198.51.100.99"))
	silent.ServeUDP(53, func(*netsim.Network, wire.Endpoint, []byte) []byte { return nil })
	registry.Delegate("silent.example", silent.Addr)

	svc := NewService(n, "Yandex", wire.MustParseAddr("77.88.8.8"), registry, geo)
	svc.AddInstance(&Instance{Name: "default", Egress: []*netsim.Host{
		netsim.NewHost(n, wire.MustParseAddr("77.88.9.1")),
		netsim.NewHost(n, wire.MustParseAddr("77.88.9.2")),
	}})
	svc.EnableDoH()
	retrier := NewService(n, "Retrier", wire.MustParseAddr("77.88.8.9"), registry, geo)
	retrier.AddInstance(&Instance{Name: "default", Egress: []*netsim.Host{
		netsim.NewHost(n, wire.MustParseAddr("77.88.10.1")),
	}, ExtraRetries: 2, RetryDelay: time.Second})
	NewReferralServer(n, "a.root", "", wire.MustParseAddr("198.41.0.4"))

	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.1"))
	udp := func(to wire.Addr, m *dnswire.Message) {
		payload, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		client.SendUDPRequest(n, wire.Endpoint{Addr: to, Port: 53}, payload, netsim.UDPRequestOpts{Timeout: 30 * time.Second})
		n.RunUntilIdle()
	}
	doh := func(m *dnswire.Message) {
		inner, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		req := &httpwire.Request{
			Method: "POST", Path: "/dns-query",
			Headers: map[string]string{"host": "doh.x", "content-type": "application/dns-message"},
			Body:    inner,
		}
		client.SendTCPRequest(n, wire.Endpoint{Addr: svc.Addr, Port: 443}, req.Encode(), netsim.TCPRequestOpts{Timeout: 30 * time.Second})
		n.RunUntilIdle()
	}

	udp(svc.Addr, dnswire.NewQuery(0x1001, "miss.www.experiment.domain", dnswire.TypeA))
	udp(svc.Addr, dnswire.NewQuery(0x1002, "miss.www.experiment.domain", dnswire.TypeA))
	odd := dnswire.NewQuery(0x1003, "MISS.www.experiment.domain", dnswire.TypeA)
	odd.Header.Opcode, odd.Header.RD = 2, false
	udp(svc.Addr, odd)
	odd = dnswire.NewQuery(0x1004, "opcode.www.experiment.domain", dnswire.TypeTXT)
	odd.Header.Opcode, odd.Header.RD = 2, false
	udp(svc.Addr, odd)
	udp(svc.Addr, dnswire.NewQuery(0x1005, "www.unknown-zone.tld", dnswire.TypeA))
	udp(svc.Addr, dnswire.NewQuery(0x1006, "gone.silent.example", dnswire.TypeA))
	udp(retrier.Addr, dnswire.NewQuery(0x1007, "retry.www.experiment.domain", dnswire.TypeA))
	doh(dnswire.NewQuery(0x1008, "doh.www.experiment.domain", dnswire.TypeA))
	doh(dnswire.NewQuery(0x1009, "doh.www.experiment.domain", dnswire.TypeA))
	doh(dnswire.NewQuery(0x100a, "gone-doh.silent.example", dnswire.TypeA))
	doh(dnswire.NewQuery(0x100b, "doh.unknown-zone.tld", dnswire.TypeA))
	udp(wire.MustParseAddr("198.41.0.4"), dnswire.NewQuery(0x100c, "abc.www.experiment.domain", dnswire.TypeA))
	return strings.Join(log.lines, "\n") + "\n"
}

// TestReplyPacketsMatchRecorded holds every packet the resolver fleet
// sends, byte for byte, to a transcript recorded before the handlers moved
// to scratch decoding and pending-recursion records.
func TestReplyPacketsMatchRecorded(t *testing.T) {
	got := replayTranscript(t)
	if got != recordedReplay {
		gl, wl := strings.Split(got, "\n"), strings.Split(recordedReplay, "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("transcript line %d:\n got %s\nwant %s\nfull transcript:\n%s", i, g, w, got)
			}
		}
	}
}

// recordedReplay was recorded from the handlers that decoded each message
// into a fresh *dnswire.Message and kept it across the recursion.
const recordedReplay = `8ms udp 100.64.0.1:32768>77.88.8.8:53 100101000001000000000000046d697373037777770a6578706572696d656e7406646f6d61696e0000010001
24ms udp 77.88.9.2:32768>198.51.100.53:53 100100000001000000000000046d697373037777770a6578706572696d656e7406646f6d61696e0000010001
40ms udp 198.51.100.53:53>77.88.9.2:32768 100184800001000200000000046d697373037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
56ms udp 77.88.8.8:53>100.64.0.1:32768 100181800001000200000000046d697373037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
30.008s udp 100.64.0.1:32769>77.88.8.8:53 100201000001000000000000046d697373037777770a6578706572696d656e7406646f6d61696e0000010001
30.024s udp 77.88.8.8:53>100.64.0.1:32769 100281800001000200000000046d697373037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
1m0.008s udp 100.64.0.1:32770>77.88.8.8:53 100310000001000000000000046d697373037777770a6578706572696d656e7406646f6d61696e0000010001
1m0.024s udp 77.88.8.8:53>100.64.0.1:32770 100390800001000200000000046d697373037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
1m30.008s udp 100.64.0.1:32771>77.88.8.8:53 100410000001000000000000066f70636f6465037777770a6578706572696d656e7406646f6d61696e0000100001
1m30.024s udp 77.88.9.1:32768>198.51.100.53:53 100400000001000000000000066f70636f6465037777770a6578706572696d656e7406646f6d61696e0000100001
1m30.04s udp 198.51.100.53:53>77.88.9.1:32768 100484800001000200000000066f70636f6465037777770a6578706572696d656e7406646f6d61696e0000100001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
1m30.056s udp 77.88.8.8:53>100.64.0.1:32771 100490800001000200000000066f70636f6465037777770a6578706572696d656e7406646f6d61696e0000100001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
2m0.008s udp 100.64.0.1:32772>77.88.8.8:53 100501000001000000000000037777770c756e6b6e6f776e2d7a6f6e6503746c640000010001
2m0.024s udp 77.88.8.8:53>100.64.0.1:32772 100581820001000000000000037777770c756e6b6e6f776e2d7a6f6e6503746c640000010001
2m30.008s udp 100.64.0.1:32773>77.88.8.8:53 10060100000100000000000004676f6e650673696c656e74076578616d706c650000010001
2m30.024s udp 77.88.9.1:32769>198.51.100.99:53 10060000000100000000000004676f6e650673696c656e74076578616d706c650000010001
2m33.024s udp 77.88.8.8:53>100.64.0.1:32773 10068182000100000000000004676f6e650673696c656e74076578616d706c650000010001
3m0.008s udp 100.64.0.1:32774>77.88.8.9:53 100701000001000000000000057265747279037777770a6578706572696d656e7406646f6d61696e0000010001
3m0.024s udp 77.88.10.1:32768>198.51.100.53:53 100700000001000000000000057265747279037777770a6578706572696d656e7406646f6d61696e0000010001
3m0.04s udp 198.51.100.53:53>77.88.10.1:32768 100784800001000200000000057265747279037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
3m0.056s udp 77.88.8.9:53>100.64.0.1:32774 100781800001000200000000057265747279037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
3m1.024s udp 77.88.10.1:32769>198.51.100.53:53 100700000001000000000000057265747279037777770a6578706572696d656e7406646f6d61696e0000010001
3m1.04s udp 198.51.100.53:53>77.88.10.1:32769 100784800001000200000000057265747279037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
3m2.024s udp 77.88.10.1:32770>198.51.100.53:53 100700000001000000000000057265747279037777770a6578706572696d656e7406646f6d61696e0000010001
3m2.04s udp 198.51.100.53:53>77.88.10.1:32770 100784800001000200000000057265747279037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
3m30.008s tcp 100.64.0.1:32775>77.88.8.8:443 f02 
3m30.024s tcp 77.88.8.8:443>100.64.0.1:32775 f12 
3m30.04s tcp 100.64.0.1:32775>77.88.8.8:443 f10 
3m30.04s tcp 100.64.0.1:32775>77.88.8.8:443 f18 504f5354202f646e732d717565727920485454502f312e310d0a486f73743a20646f682e780d0a436f6e74656e742d547970653a206170706c69636174696f6e2f646e732d6d6573736167650d0a436f6e74656e742d4c656e6774683a2034330d0a0d0a10080100000100000000000003646f68037777770a6578706572696d656e7406646f6d61696e0000010001
3m30.056s udp 77.88.9.1:32770>198.51.100.53:53 10080000000100000000000003646f68037777770a6578706572696d656e7406646f6d61696e0000010001
3m30.072s udp 198.51.100.53:53>77.88.9.1:32770 10088480000100020000000003646f68037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
3m30.088s tcp 77.88.8.8:443>100.64.0.1:32775 f19 485454502f312e3120323030204f4b0d0a436f6e6e656374696f6e3a20636c6f73650d0a436f6e74656e742d547970653a206170706c69636174696f6e2f646e732d6d6573736167650d0a5365727665723a20736861646f776d657465722d686f6e6579706f742f312e300d0a436f6e74656e742d4c656e6774683a2037350d0a0d0a10088180000100020000000003646f68037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
4m0.008s tcp 100.64.0.1:32776>77.88.8.8:443 f02 
4m0.024s tcp 77.88.8.8:443>100.64.0.1:32776 f12 
4m0.04s tcp 100.64.0.1:32776>77.88.8.8:443 f10 
4m0.04s tcp 100.64.0.1:32776>77.88.8.8:443 f18 504f5354202f646e732d717565727920485454502f312e310d0a486f73743a20646f682e780d0a436f6e74656e742d547970653a206170706c69636174696f6e2f646e732d6d6573736167650d0a436f6e74656e742d4c656e6774683a2034330d0a0d0a10090100000100000000000003646f68037777770a6578706572696d656e7406646f6d61696e0000010001
4m0.056s tcp 77.88.8.8:443>100.64.0.1:32776 f19 485454502f312e3120323030204f4b0d0a436f6e6e656374696f6e3a20636c6f73650d0a436f6e74656e742d547970653a206170706c69636174696f6e2f646e732d6d6573736167650d0a5365727665723a20736861646f776d657465722d686f6e6579706f742f312e300d0a436f6e74656e742d4c656e6774683a2037350d0a0d0a10098180000100020000000003646f68037777770a6578706572696d656e7406646f6d61696e0000010001c00c00010001000002580004cb00710ac00c00010001000002580004cb00710b
4m30.008s tcp 100.64.0.1:32777>77.88.8.8:443 f02 
4m30.024s tcp 77.88.8.8:443>100.64.0.1:32777 f12 
4m30.04s tcp 100.64.0.1:32777>77.88.8.8:443 f10 
4m30.04s tcp 100.64.0.1:32777>77.88.8.8:443 f18 504f5354202f646e732d717565727920485454502f312e310d0a486f73743a20646f682e780d0a436f6e74656e742d547970653a206170706c69636174696f6e2f646e732d6d6573736167650d0a436f6e74656e742d4c656e6774683a2034310d0a0d0a100a0100000100000000000008676f6e652d646f680673696c656e74076578616d706c650000010001
4m30.056s udp 77.88.9.1:32771>198.51.100.99:53 100a0000000100000000000008676f6e652d646f680673696c656e74076578616d706c650000010001
4m33.056s tcp 77.88.8.8:443>100.64.0.1:32777 f19 485454502f312e3120323030204f4b0d0a436f6e6e656374696f6e3a20636c6f73650d0a436f6e74656e742d547970653a206170706c69636174696f6e2f646e732d6d6573736167650d0a5365727665723a20736861646f776d657465722d686f6e6579706f742f312e300d0a436f6e74656e742d4c656e6774683a2034310d0a0d0a100a8182000100000000000008676f6e652d646f680673696c656e74076578616d706c650000010001
5m0.008s tcp 100.64.0.1:32778>77.88.8.8:443 f02 
5m0.024s tcp 77.88.8.8:443>100.64.0.1:32778 f12 
5m0.04s tcp 100.64.0.1:32778>77.88.8.8:443 f10 
5m0.04s tcp 100.64.0.1:32778>77.88.8.8:443 f18 504f5354202f646e732d717565727920485454502f312e310d0a486f73743a20646f682e780d0a436f6e74656e742d547970653a206170706c69636174696f6e2f646e732d6d6573736167650d0a436f6e74656e742d4c656e6774683a2033380d0a0d0a100b0100000100000000000003646f680c756e6b6e6f776e2d7a6f6e6503746c640000010001
5m0.056s tcp 77.88.8.8:443>100.64.0.1:32778 f19 485454502f312e3120323030204f4b0d0a436f6e6e656374696f6e3a20636c6f73650d0a436f6e74656e742d547970653a206170706c69636174696f6e2f646e732d6d6573736167650d0a5365727665723a20736861646f776d657465722d686f6e6579706f742f312e300d0a436f6e74656e742d4c656e6774683a2033380d0a0d0a100b8182000100000000000003646f680c756e6b6e6f776e2d7a6f6e6503746c640000010001
5m30.008s udp 100.64.0.1:32779>198.41.0.4:53 100c0100000100000000000003616263037777770a6578706572696d656e7406646f6d61696e0000010001
5m30.024s udp 198.41.0.4:53>100.64.0.1:32779 100c8180000100000001000003616263037777770a6578706572696d656e7406646f6d61696e0000010001c01f000200010002a3000006036e7331c01f
`

// BenchmarkCacheHit answers one client query from an instance's cache, the
// resolver's common case once a name is warm. Its only allocation is the
// decoded query name, which the cache lookup and any exhibitor may keep.
func BenchmarkCacheHit(b *testing.B) {
	n, geo := testWorld()
	svc, authQueries, client := buildResolver(n, geo, 0)
	from := wire.Endpoint{Addr: client.Addr, Port: 40000}
	payload, err := dnswire.NewQuery(0x77, "warm.www.experiment.domain", dnswire.TypeA).Encode()
	if err != nil {
		b.Fatal(err)
	}
	if svc.handleQuery(n, from, payload) != nil {
		b.Fatal("a cold query was answered synchronously")
	}
	n.RunUntilIdle()
	if *authQueries != 1 || svc.handleQuery(n, from, payload) == nil {
		b.Fatal("the warmed name is not answered from cache")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if svc.handleQuery(n, from, payload) == nil {
			b.Fatal("cache miss")
		}
	}
}
