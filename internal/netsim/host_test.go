package netsim

import (
	"fmt"
	"testing"
	"time"

	"shadowmeter/internal/wire"
)

func twoRouterNet() (*Network, []*Router) {
	routers := []*Router{
		{Name: "r1", Addr: wire.AddrFrom(10, 0, 0, 1)},
		{Name: "r2", Addr: wire.AddrFrom(10, 0, 0, 2)},
	}
	n := New(Config{Start: t0, Path: func(src, dst wire.Addr) []*Router { return routers }})
	return n, routers
}

func TestUDPRequestResponse(t *testing.T) {
	n, _ := twoRouterNet()
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 53))
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, payload []byte) []byte {
		return append([]byte("re:"), payload...)
	})

	var reply []byte
	client.SendUDPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 53}, []byte("query"), UDPRequestOpts{
		Replier: ReplyFuncs{OnReply: func(n *Network, payload []byte) { reply = append([]byte(nil), payload...) }},
	})
	n.RunUntilIdle()
	if string(reply) != "re:query" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestUDPTimeout(t *testing.T) {
	n, _ := twoRouterNet()
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	// No server registered at destination.
	timedOut := false
	replied := false
	client.SendUDPRequest(n, wire.Endpoint{Addr: wire.AddrFrom(9, 9, 9, 9), Port: 53}, []byte("q"), UDPRequestOpts{
		Timeout: 2 * time.Second,
		Replier: ReplyFuncs{
			OnReply:   func(*Network, []byte) { replied = true },
			OnTimeout: func(*Network) { timedOut = true },
		},
	})
	n.RunUntilIdle()
	if !timedOut || replied {
		t.Errorf("timedOut=%v replied=%v", timedOut, replied)
	}
}

func TestUDPNoDoubleCallback(t *testing.T) {
	n, _ := twoRouterNet()
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 53))
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, payload []byte) []byte { return payload })
	calls := 0
	client.SendUDPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 53}, []byte("q"), UDPRequestOpts{
		Timeout: time.Second,
		Replier: ReplyFuncs{
			OnReply:   func(*Network, []byte) { calls++ },
			OnTimeout: func(*Network) { calls += 100 },
		},
	})
	n.RunUntilIdle()
	if calls != 1 {
		t.Errorf("calls = %d, want exactly 1 (reply only)", calls)
	}
}

func TestTCPRequestResponse(t *testing.T) {
	n, routers := twoRouterNet()
	tap := &recordingTap{}
	routers[0].AttachTap(tap)

	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(203, 0, 113, 80))
	server.ServeTCP(80, func(n *Network, from wire.Endpoint, payload []byte) []byte {
		return append([]byte("HTTP/1.1 200 OK\r\n\r\n"), payload...)
	})

	var resp []byte
	client.SendTCPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 80}, []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), TCPRequestOpts{
		OnResponse: func(n *Network, payload []byte) { resp = append([]byte(nil), payload...) },
	})
	n.RunUntilIdle()
	if len(resp) == 0 || string(resp[:15]) != "HTTP/1.1 200 OK" {
		t.Fatalf("resp = %q", resp)
	}
	// The tap must have seen the handshake (SYN, ACK, data) client-side
	// packets plus any request payload — at least 3 observations.
	if len(tap.seen) < 3 {
		t.Errorf("tap observed %d packets, want >= 3 (handshake + data)", len(tap.seen))
	}
	foundPayload := false
	for _, s := range tap.seen {
		if len(s) > 0 && s[:3] == "GET" {
			foundPayload = true
		}
	}
	if !foundPayload {
		t.Error("tap never saw the request payload on the wire")
	}
}

func TestTCPFailNoServer(t *testing.T) {
	n, _ := twoRouterNet()
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	failed := false
	client.SendTCPRequest(n, wire.Endpoint{Addr: wire.AddrFrom(9, 9, 9, 9), Port: 80}, []byte("x"), TCPRequestOpts{
		Timeout: time.Second,
		OnFail:  func(*Network) { failed = true },
	})
	n.RunUntilIdle()
	if !failed {
		t.Error("handshake to nonexistent server should fail")
	}
}

// TestTCPStaleTimeoutAfterFlowReuse completes a request well inside its
// timeout, so its flow returns to the pool while the timeout event is still
// queued, then opens a second request that reuses the struct. The first
// request's timeout firing must not fail the second, which must still time
// out on its own schedule.
func TestTCPStaleTimeoutAfterFlowReuse(t *testing.T) {
	n, _ := twoRouterNet()
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(203, 0, 113, 80))
	server.ServeTCP(80, func(n *Network, from wire.Endpoint, payload []byte) []byte { return payload })

	var events []string
	record := func(what string) { events = append(events, fmt.Sprintf("%s@%v", what, n.Now().Sub(t0))) }
	client.SendTCPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 80}, []byte("first"), TCPRequestOpts{
		Timeout:    10 * time.Second,
		OnResponse: func(*Network, []byte) { record("first-response") },
		OnFail:     func(*Network) { record("first-fail") },
	})
	n.Run(t0.Add(time.Second))
	if len(client.freeFlows) != 1 {
		t.Fatalf("after the first response the pool holds %d flows, want 1", len(client.freeFlows))
	}
	reused := client.freeFlows[0]
	// No server answers at 9.9.9.9: the second request can only time out.
	client.SendTCPRequest(n, wire.Endpoint{Addr: wire.AddrFrom(9, 9, 9, 9), Port: 80}, []byte("second"), TCPRequestOpts{
		Timeout:    20 * time.Second,
		OnResponse: func(*Network, []byte) { record("second-response") },
		OnFail:     func(*Network) { record("second-fail") },
	})
	if len(client.freeFlows) != 0 || client.tcpFlows[reused.key] != reused {
		t.Fatal("the second request did not reuse the pooled flow")
	}
	n.RunUntilIdle()
	want := []string{"first-response@96ms", "second-fail@21s"}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Errorf("callbacks = %v, want %v", events, want)
	}
	if len(client.tcpFlows) != 0 || len(client.freeFlows) != 1 {
		t.Errorf("after both requests: %d flows open, %d pooled; want 0 and 1", len(client.tcpFlows), len(client.freeFlows))
	}
}

func TestSendRawTCPPayload(t *testing.T) {
	n, routers := twoRouterNet()
	tap := &recordingTap{}
	routers[1].AttachTap(tap)
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	// No handshake: single data packet with limited TTL (Phase II mode).
	client.SendRawTCPPayload(n, wire.Endpoint{Addr: wire.AddrFrom(203, 0, 113, 80), Port: 443}, 2, 77, []byte("clienthello-bytes"))
	n.RunUntilIdle()
	if len(tap.seen) != 1 || tap.seen[0] != "clienthello-bytes" {
		t.Fatalf("tap saw %v", tap.seen)
	}
	// TTL=2 expired exactly at r2: the data packet never reached a server,
	// and the only delivery is the ICMP error back to the client.
	if s := n.Stats(); s.TTLExpired != 1 || s.PacketsDelivered != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHostICMPHook(t *testing.T) {
	n, routers := twoRouterNet()
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	var from wire.Addr
	client.OnICMP(func(n *Network, pkt *wire.Packet) { from = pkt.IP.Src })
	client.SendUDPOneShot(n, wire.Endpoint{Addr: wire.AddrFrom(9, 9, 9, 9), Port: 53}, 1, 5, []byte("ttl1"))
	n.RunUntilIdle()
	if from != routers[0].Addr {
		t.Errorf("ICMP from %v, want %v", from, routers[0].Addr)
	}
}

func TestHostUnmatchedHook(t *testing.T) {
	n, _ := twoRouterNet()
	host := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	var unmatched int
	host.OnUnmatched = func(n *Network, pkt *wire.Packet) { unmatched++ }
	raw, _ := wire.BuildUDP(wire.Endpoint{Addr: wire.AddrFrom(5, 5, 5, 5), Port: 999}, wire.Endpoint{Addr: host.Addr, Port: 31337}, 64, 1, []byte("scan"))
	n.SendPacket(raw)
	n.RunUntilIdle()
	if unmatched != 1 {
		t.Errorf("unmatched = %d", unmatched)
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	n, _ := twoRouterNet()
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	seen := make(map[uint16]bool)
	for i := 0; i < 100; i++ {
		p := client.SendUDPRequest(n, wire.Endpoint{Addr: wire.AddrFrom(9, 9, 9, 9), Port: 53}, nil, UDPRequestOpts{Timeout: time.Millisecond})
		if seen[p] {
			t.Fatalf("port %d reused", p)
		}
		seen[p] = true
	}
}

func TestConcurrentUDPRequestsSameDst(t *testing.T) {
	n, _ := twoRouterNet()
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 53))
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, payload []byte) []byte { return payload })
	got := make(map[string]bool)
	for _, q := range []string{"a", "b", "c"} {
		q := q
		client.SendUDPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 53}, []byte(q), UDPRequestOpts{
			Replier: ReplyFuncs{OnReply: func(n *Network, payload []byte) { got[string(payload)] = true }},
		})
	}
	n.RunUntilIdle()
	if len(got) != 3 {
		t.Errorf("got %v, want 3 distinct replies", got)
	}
}

// bufferTap maps every packet crossing its router to the buffer carrying
// it, identified by the address of the first byte after the IP header,
// and notes the last round each buffer was seen in.
type bufferTap struct {
	round     int
	bufOf     map[*byte]*byte // transport payload's first byte -> buffer
	lastRound map[*byte]int
}

func (p *bufferTap) Observe(_ *Network, _ *Router, pkt *wire.Packet) {
	buf := &pkt.IP.Payload()[0]
	p.lastRound[buf] = p.round
	if pl := pkt.TransportPayload(); len(pl) > 0 {
		p.bufOf[&pl[0]] = buf
	}
}

// TestDeliveredPayloadsAreCallScopedViews checks the packet-ownership rule
// on all four delivery paths: a UDP service, a UDP reply callback, a TCP
// app and a TCP response callback each get a capacity-capped slice of the
// delivered packet's own buffer (the one taps saw in flight), and once
// the handler has returned that buffer goes back to the pool and carries
// a later packet.
func TestDeliveredPayloadsAreCallScopedViews(t *testing.T) {
	n, routers := twoRouterNet()
	tap := &bufferTap{bufOf: make(map[*byte]*byte), lastRound: make(map[*byte]int)}
	routers[1].AttachTap(tap)
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 80))

	type view struct {
		who string
		buf *byte
	}
	var views []view
	see := func(who string, b []byte) {
		if tap.round != 0 {
			return
		}
		var buf *byte
		if len(b) > 0 {
			buf = tap.bufOf[&b[0]]
		}
		if buf == nil {
			t.Errorf("%s payload %q is not the delivered packet's buffer", who, b)
			return
		}
		if cap(b) != len(b) {
			t.Errorf("%s payload has cap %d beyond its len %d: an append would write into the packet", who, cap(b), len(b))
		}
		views = append(views, view{who, buf})
	}
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, payload []byte) []byte {
		see("UDPService", payload)
		return append([]byte("re:"), payload...)
	})
	server.ServeTCP(80, func(n *Network, from wire.Endpoint, payload []byte) []byte {
		see("TCPApp", payload)
		return append([]byte("HTTP/1.1 200 OK\r\n\r\n"), payload...)
	})
	send := func(i int) {
		client.SendUDPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 53}, []byte(fmt.Sprintf("query-%d", i)), UDPRequestOpts{
			Replier: ReplyFuncs{OnReply: func(n *Network, payload []byte) { see("OnReply", payload) }},
		})
		client.SendTCPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 80}, []byte(fmt.Sprintf("GET /%d", i)), TCPRequestOpts{
			OnResponse: func(n *Network, payload []byte) { see("OnResponse", payload) },
		})
	}
	send(0)
	n.RunUntilIdle()
	if len(views) != 4 {
		t.Fatalf("handlers saw %d payloads, want 4 (one per delivery path)", len(views))
	}
	tap.round = 1
	for i := 1; i <= 64; i++ {
		send(i)
	}
	n.RunUntilIdle()
	for _, v := range views {
		if tap.lastRound[v.buf] != 1 {
			t.Errorf("%s payload's buffer never carried a later packet: the pool did not hand it out again", v.who)
		}
	}
}

// TestBufferPoolStaysBounded checks that every packet's buffer returns to
// the pool, whichever way the packet dies (delivery, TTL expiry, no
// route): over 10,000 sequential rounds the pool holds no more buffers
// than after the first.
func TestBufferPoolStaysBounded(t *testing.T) {
	routers := []*Router{{Addr: wire.AddrFrom(10, 0, 0, 1)}, {Addr: wire.AddrFrom(10, 0, 0, 2)}}
	unrouted := wire.AddrFrom(198, 51, 100, 1)
	n := New(Config{Start: t0, Path: func(src, dst wire.Addr) []*Router {
		if dst == unrouted {
			return nil
		}
		return routers
	}})
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 53))
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, payload []byte) []byte { return payload })
	server.ServeTCP(80, func(n *Network, from wire.Endpoint, payload []byte) []byte { return payload })
	query, get, probe := []byte("query"), []byte("GET / HTTP/1.1\r\n\r\n"), []byte("probe")
	round := func() {
		client.SendUDPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 53}, query, UDPRequestOpts{})
		client.SendTCPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 80}, get, TCPRequestOpts{})
		client.SendUDPOneShot(n, wire.Endpoint{Addr: server.Addr, Port: 33434}, 1, 0, probe) // expires at the first router
		client.SendUDPOneShot(n, wire.Endpoint{Addr: unrouted, Port: 53}, 64, 0, probe)
		n.RunUntilIdle()
	}
	round()
	first := n.bufs.size()
	if first == 0 {
		t.Fatal("no buffer returned to the pool after the first round")
	}
	// Once the pools are warm a round allocates nothing: a buffer that did
	// not come back would be replaced by a fresh one. AllocsPerRun runs
	// 101 rounds.
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a warm round allocates %.1f times, want 0", allocs)
	}
	for i := 1 + 101; i < 10000; i++ {
		round()
	}
	if got := n.bufs.size(); got != first {
		t.Fatalf("pool holds %d buffers after 10,000 rounds, %d after the first", got, first)
	}
	if s := n.Stats(); s.TTLExpired != 10000 || s.NoRoute != 10000 {
		t.Fatalf("stats %+v: want 10,000 TTL expiries and 10,000 unrouted sends", s)
	}
}

// size reports how many buffers the pool holds.
func (p *bufPool) size() int {
	k := 0
	for _, free := range p {
		k += len(free)
	}
	return k
}

func BenchmarkEndToEndUDP(b *testing.B) {
	routers := []*Router{
		{Addr: wire.AddrFrom(10, 0, 0, 1)},
		{Addr: wire.AddrFrom(10, 0, 0, 2)},
		{Addr: wire.AddrFrom(10, 0, 0, 3)},
	}
	n := New(Config{Start: t0, Path: func(src, dst wire.Addr) []*Router { return routers }})
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 53))
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, payload []byte) []byte { return payload })
	payload := []byte("benchmark query payload")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		client.SendUDPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 53}, payload, UDPRequestOpts{})
		n.RunUntilIdle()
	}
}
