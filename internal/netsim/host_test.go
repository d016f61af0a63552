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
		OnReply: func(n *Network, payload []byte) { reply = payload },
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
		Timeout:   2 * time.Second,
		OnReply:   func(*Network, []byte) { replied = true },
		OnTimeout: func(*Network) { timedOut = true },
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
		Timeout:   time.Second,
		OnReply:   func(*Network, []byte) { calls++ },
		OnTimeout: func(*Network) { calls += 100 },
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
		OnResponse: func(n *Network, payload []byte) { resp = payload },
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
			OnReply: func(n *Network, payload []byte) { got[string(payload)] = true },
		})
	}
	n.RunUntilIdle()
	if len(got) != 3 {
		t.Errorf("got %v, want 3 distinct replies", got)
	}
}

// payloadTap records where every non-empty transport payload crossing its
// router lives: the address of its first byte in the in-flight buffer.
type payloadTap struct{ seen map[*byte]bool }

func (p *payloadTap) Observe(_ *Network, _ *Router, pkt *wire.Packet) {
	var pl []byte
	switch {
	case pkt.UDP != nil:
		pl = pkt.UDP.Payload()
	case pkt.TCP != nil:
		pl = pkt.TCP.Payload()
	}
	if len(pl) > 0 {
		p.seen[&pl[0]] = true
	}
}

// TestDeliveredPayloadsAliasPacketBuffer checks the packet-ownership rule
// on all four delivery paths: a UDP service, a UDP reply callback, a TCP
// app and a TCP response callback each get a slice of the delivered
// packet's own buffer (the one taps saw in flight), capacity-capped, and
// the bytes a handler kept stay unchanged while the network goes on to
// dispatch more traffic through the same pooled flights and events.
func TestDeliveredPayloadsAliasPacketBuffer(t *testing.T) {
	n, routers := twoRouterNet()
	tap := &payloadTap{seen: make(map[*byte]bool)}
	routers[1].AttachTap(tap)
	client := NewHost(n, wire.AddrFrom(100, 0, 0, 1))
	server := NewHost(n, wire.AddrFrom(192, 0, 2, 80))

	type kept struct {
		who  string
		b    []byte
		want string
	}
	var held []kept
	holding := true
	hold := func(who string, b []byte) {
		if !holding {
			return
		}
		if len(b) == 0 || !tap.seen[&b[0]] {
			t.Errorf("%s payload %q is not the delivered packet's buffer", who, b)
		}
		if cap(b) != len(b) {
			t.Errorf("%s payload has cap %d beyond its len %d: an append would write into the packet", who, cap(b), len(b))
		}
		held = append(held, kept{who, b, string(b)})
	}
	server.ServeUDP(53, func(n *Network, from wire.Endpoint, payload []byte) []byte {
		hold("UDPService", payload)
		return append([]byte("re:"), payload...)
	})
	server.ServeTCP(80, func(n *Network, from wire.Endpoint, payload []byte) []byte {
		hold("TCPApp", payload)
		return append([]byte("HTTP/1.1 200 OK\r\n\r\n"), payload...)
	})
	send := func(i int) {
		client.SendUDPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 53}, []byte(fmt.Sprintf("query-%d", i)), UDPRequestOpts{
			OnReply: func(n *Network, payload []byte) { hold("OnReply", payload) },
		})
		client.SendTCPRequest(n, wire.Endpoint{Addr: server.Addr, Port: 80}, []byte(fmt.Sprintf("GET /%d", i)), TCPRequestOpts{
			OnResponse: func(n *Network, payload []byte) { hold("OnResponse", payload) },
		})
	}
	send(0)
	// A datagram whose buffer has spare capacity past its payload: only
	// the cap on the delivered slice keeps an append out of that space.
	raw, err := wire.BuildUDP(wire.Endpoint{Addr: client.Addr, Port: 4000}, wire.Endpoint{Addr: server.Addr, Port: 53}, 64, 1, []byte("spare"))
	if err != nil {
		t.Fatal(err)
	}
	n.InjectOwned(append(make([]byte, 0, len(raw)+32), raw...))
	n.RunUntilIdle()
	if len(held) != 5 {
		t.Fatalf("handlers kept %d payloads, want 5 (two UDP services, then one per other path)", len(held))
	}
	holding = false
	for i := 1; i <= 64; i++ {
		send(i)
	}
	n.RunUntilIdle()
	for _, k := range held {
		if string(k.b) != k.want {
			t.Errorf("%s payload changed after later traffic: %q, was %q", k.who, k.b, k.want)
		}
	}
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
