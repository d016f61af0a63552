package netsim

import (
	"time"

	"shadowmeter/internal/wire"
)

// Host is a protocol multiplexer for one simulated address: UDP services,
// TCP services, a lightweight TCP/UDP client, and an ICMP hook. Vantage
// points, resolvers, web servers and honeypots are all Hosts.
type Host struct {
	Addr wire.Addr

	udpServices map[uint16]UDPService
	tcpServices map[uint16]TCPApp
	onICMP      func(n *Network, pkt *wire.Packet)

	// client state
	nextEphemeral uint16
	nextIPID      uint16
	udpWaiters    map[udpWaiterKey]*udpWaiter
	tcpFlows      map[tcpFlowKey]*clientFlow

	// freeWaiters recycles udpWaiter structs. A waiter returns to the
	// pool only when its (single, typed) timeout event fires — each
	// generation schedules exactly one — so the pool can never hold a
	// waiter that a queued event still refers to under its current
	// generation.
	freeWaiters []*udpWaiter
	// freeFlows recycles clientFlow structs. Unlike a waiter, a flow
	// returns to the pool as soon as its request ends (response, reset or
	// timeout); the timeout event armed for it may still be queued, and its
	// generation check makes it a no-op once the struct is reused.
	freeFlows []*clientFlow

	// OnUnmatched, if set, sees packets no service or client flow claimed.
	OnUnmatched func(n *Network, pkt *wire.Packet)
}

// UDPService handles datagrams arriving on a UDP port. Return a non-nil
// reply to answer the sender (a nil return means no response).
//
// Payload ownership, here and for TCPApp, UDPRequestOpts.OnReply and
// TCPRequestOpts.OnResponse: the payload slice aliases the delivered
// packet's own buffer, with no copy, and is valid only for the duration of
// the call. Once the handler returns, the buffer goes back to the
// network's pool and carries a later packet, so a handler that keeps any
// of the payload's bytes (a string conversion, a decode into fresh
// storage, an explicit copy) must make its copy before it returns. A
// handler must not write to the payload; its capacity is capped at its
// length, so an append always copies. The reply is copied into a packet
// of its own before the handler's next call, so it may be scratch, a
// shared constant or the payload itself.
type UDPService func(n *Network, from wire.Endpoint, payload []byte) []byte

// TCPApp handles one request payload on an accepted TCP "connection" and
// returns the response payload. Payload and reply follow UDPService's
// ownership rule.
type TCPApp func(n *Network, from wire.Endpoint, payload []byte) []byte

// payloadOf is the delivered-payload view every handler receives: the
// packet's transport payload itself, capacity-capped so an append by the
// handler cannot reach the packet buffer.
func payloadOf(p []byte) []byte { return p[:len(p):len(p)] }

// NewHost creates a host and registers it on the network.
func NewHost(n *Network, addr wire.Addr) *Host {
	h := &Host{
		Addr:          addr,
		udpServices:   make(map[uint16]UDPService),
		tcpServices:   make(map[uint16]TCPApp),
		nextEphemeral: 32768,
		udpWaiters:    make(map[udpWaiterKey]*udpWaiter),
		tcpFlows:      make(map[tcpFlowKey]*clientFlow),
	}
	n.AddHost(addr, h)
	return h
}

// ServeUDP registers a UDP service on port.
func (h *Host) ServeUDP(port uint16, svc UDPService) { h.udpServices[port] = svc }

// ServeTCP registers a TCP application on port.
func (h *Host) ServeTCP(port uint16, app TCPApp) { h.tcpServices[port] = app }

// OnICMP registers the ICMP hook (traceroute return channel).
func (h *Host) OnICMP(fn func(n *Network, pkt *wire.Packet)) { h.onICMP = fn }

// Handle implements Handler. It runs once per delivered packet — an
// explicit hot-path root, since interface dispatch hides it from the
// forwarding engine's static call graph.
//
//shadowlint:hotpath
func (h *Host) Handle(n *Network, pkt *wire.Packet) {
	switch {
	case pkt.ICMP != nil:
		if h.onICMP != nil {
			h.onICMP(n, pkt)
			return
		}
	case pkt.UDP != nil:
		if h.handleUDP(n, pkt) {
			return
		}
	case pkt.TCP != nil:
		if h.handleTCP(n, pkt) {
			return
		}
	}
	if h.OnUnmatched != nil {
		h.OnUnmatched(n, pkt)
	}
}

func (h *Host) handleUDP(n *Network, pkt *wire.Packet) bool {
	from := wire.Endpoint{Addr: pkt.IP.Src, Port: pkt.UDP.SrcPort}
	// Server side.
	if svc, ok := h.udpServices[pkt.UDP.DstPort]; ok {
		if reply := svc(n, from, payloadOf(pkt.UDP.Payload())); reply != nil {
			n.InjectUDP(wire.Endpoint{Addr: h.Addr, Port: pkt.UDP.DstPort}, from, 64, h.ipID(0), reply)
		}
		return true
	}
	// Client side: a reply to an outstanding request? The waiter leaves
	// the map now but returns to the pool only when its timeout event
	// fires (see udpTimeout); the callbacks are dropped here so the event
	// queue is not what keeps request closures alive.
	if w, ok := h.udpWaiters[udpWaiterKey{dst: from, sport: pkt.UDP.DstPort}]; ok {
		delete(h.udpWaiters, udpWaiterKey{dst: from, sport: pkt.UDP.DstPort})
		cb := w.onReply
		w.onReply, w.onTimeout = nil, nil
		if cb != nil {
			cb(n, payloadOf(pkt.UDP.Payload()))
		}
		return true
	}
	return false
}

// udpWaiterKey identifies an outstanding UDP request: the destination it
// was sent to plus the ephemeral source port it was sent from. A flat map
// keyed by both avoids a per-destination inner map on every request.
type udpWaiterKey struct {
	dst   wire.Endpoint
	sport uint16
}

// udpWaiter is pooled per host. gen increments on every acquisition, so a
// timeout event carrying (waiter, gen) can tell whether it belongs to the
// request it was armed for or to a later reuse of the same struct.
type udpWaiter struct {
	onReply   func(n *Network, payload []byte)
	onTimeout func(n *Network)
	key       udpWaiterKey
	gen       uint64
}

// newWaiter takes a waiter from the pool (or allocates one) and bumps its
// generation.
func (h *Host) newWaiter() *udpWaiter {
	var w *udpWaiter
	if k := len(h.freeWaiters); k > 0 {
		w = h.freeWaiters[k-1]
		h.freeWaiters = h.freeWaiters[:k-1]
	} else {
		w = &udpWaiter{}
	}
	w.gen++
	return w
}

// releaseWaiter drops the waiter's callback references and pools it.
func (h *Host) releaseWaiter(w *udpWaiter) {
	w.onReply, w.onTimeout = nil, nil
	h.freeWaiters = append(h.freeWaiters, w)
}

// udpTimeout is the dispatch target of a waiter's typed timeout event: the
// sole release point of generation gen. If the generation is stale the
// waiter was already reclaimed and re-armed — nothing to do. If the waiter
// still sits in the map this generation timed out for real; otherwise its
// reply was consumed and the event only needs to return the struct to the
// pool.
func (h *Host) udpTimeout(n *Network, w *udpWaiter, gen uint64) {
	if w.gen != gen {
		return
	}
	if cur, ok := h.udpWaiters[w.key]; ok && cur == w {
		delete(h.udpWaiters, w.key)
		cb := w.onTimeout
		h.releaseWaiter(w)
		if cb != nil {
			cb(n)
		}
		return
	}
	h.releaseWaiter(w)
}

// UDPRequestOpts parameterizes SendUDPRequest.
type UDPRequestOpts struct {
	TTL     uint8         // initial IP TTL; 0 means 64
	IPID    uint16        // 0 means auto-assign
	Timeout time.Duration // 0 means 5s of virtual time
	// OnReply receives the response payload (nil-safe), aliasing the
	// delivered packet under UDPService's ownership rule.
	OnReply func(n *Network, payload []byte)
	// OnTimeout fires if no reply arrived before Timeout (nil-safe).
	OnTimeout func(n *Network)
}

// SendUDPRequest sends payload to dst from an ephemeral port and invokes
// OnReply with the response. It returns the chosen source port.
func (h *Host) SendUDPRequest(n *Network, dst wire.Endpoint, payload []byte, opts UDPRequestOpts) uint16 {
	sport := h.allocPort()
	ttl := opts.TTL
	if ttl == 0 {
		ttl = 64
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	w := h.newWaiter()
	w.onReply, w.onTimeout = opts.OnReply, opts.OnTimeout
	w.key = udpWaiterKey{dst: dst, sport: sport}
	h.udpWaiters[w.key] = w
	n.InjectUDP(wire.Endpoint{Addr: h.Addr, Port: sport}, dst, ttl, h.ipID(opts.IPID), payload)
	e := n.newEvent()
	e.host, e.udpW, e.gen = h, w, w.gen
	n.scheduleEvent(timeout, e)
	return sport
}

// SendUDPOneShot sends a datagram without waiting for any reply (used by
// Phase II tracerouting, where the interesting response is ICMP, and by
// shadowing exhibitors issuing fire-and-forget probes).
func (h *Host) SendUDPOneShot(n *Network, dst wire.Endpoint, ttl uint8, ipID uint16, payload []byte) {
	src := wire.Endpoint{Addr: h.Addr, Port: h.allocPort()}
	h.sendUDPFrom(n, src, dst, ttl, ipID, payload)
}

func (h *Host) sendUDPFrom(n *Network, src, dst wire.Endpoint, ttl uint8, ipID uint16, payload []byte) {
	if ttl == 0 {
		ttl = 64
	}
	n.InjectUDP(src, dst, ttl, h.ipID(ipID), payload)
}

type tcpFlowKey struct {
	remote wire.Endpoint
	local  uint16
}

// clientFlow is one outstanding SendTCPRequest, pooled per host. gen
// increments on every acquisition, so the typed timeout event carrying
// (flow, gen) can tell its own request from a later reuse of the struct.
type clientFlow struct {
	state      int // 0 syn-sent, 1 established (payload sent), 2 closed
	ttl        uint8
	ipID       uint16
	payload    []byte
	onResponse func(n *Network, payload []byte)
	onFail     func(n *Network)
	isn        uint32
	key        tcpFlowKey
	gen        uint64
}

// newFlow takes a flow from the pool (or allocates one) and bumps its
// generation.
func (h *Host) newFlow() *clientFlow {
	var fl *clientFlow
	if k := len(h.freeFlows); k > 0 {
		fl = h.freeFlows[k-1]
		h.freeFlows = h.freeFlows[:k-1]
	} else {
		fl = &clientFlow{}
	}
	fl.gen++
	return fl
}

// endFlow closes a flow that is still in the map: it leaves the map, drops
// its payload and callback references and returns to the pool, so its
// generation ends here. The caller runs the callback it took beforehand,
// which may open a new request on the same struct.
func (h *Host) endFlow(fl *clientFlow) {
	delete(h.tcpFlows, fl.key)
	fl.state = flowClosed
	fl.payload, fl.onResponse, fl.onFail = nil, nil, nil
	h.freeFlows = append(h.freeFlows, fl)
}

// tcpTimeout is the dispatch target of a flow's typed timeout event. A
// closed flow or a stale generation means the request already ended and
// the struct went back to the pool (where it may since carry a newer
// request): nothing to do. Otherwise the request timed out before
// completing and fails.
func (h *Host) tcpTimeout(n *Network, fl *clientFlow, gen uint64) {
	if fl.gen != gen || fl.state == flowClosed {
		return
	}
	cb := fl.onFail
	h.endFlow(fl)
	if cb != nil {
		cb(n)
	}
}

const (
	flowSynSent = iota
	flowEstablished
	flowClosed
)

// TCPRequestOpts parameterizes SendTCPRequest.
type TCPRequestOpts struct {
	TTL     uint8
	IPID    uint16
	Timeout time.Duration
	// OnResponse receives the server's response payload, aliasing the
	// delivered packet under UDPService's ownership rule.
	OnResponse func(n *Network, payload []byte)
	// OnFail fires on handshake/response timeout.
	OnFail func(n *Network)
}

// SendTCPRequest opens a minimal TCP exchange with dst: SYN, SYN-ACK, ACK,
// one request payload, one response payload. The full exchange crosses the
// simulated path packet by packet, so on-path taps observe the handshake
// and the request bytes exactly as a middlebox would. It returns the local
// port.
func (h *Host) SendTCPRequest(n *Network, dst wire.Endpoint, payload []byte, opts TCPRequestOpts) uint16 {
	sport := h.allocPort()
	ttl := opts.TTL
	if ttl == 0 {
		ttl = 64
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	fl := h.newFlow()
	fl.state = flowSynSent
	fl.ttl, fl.ipID = ttl, opts.IPID
	fl.payload = payload
	fl.onResponse, fl.onFail = opts.OnResponse, opts.OnFail
	fl.isn = uint32(sport)<<16 | 0x1234
	fl.key = tcpFlowKey{remote: dst, local: sport}
	h.tcpFlows[fl.key] = fl
	n.InjectTCP(wire.Endpoint{Addr: h.Addr, Port: sport}, dst, ttl, h.ipID(opts.IPID), wire.TCPSyn, fl.isn, 0, nil)
	e := n.newEvent()
	e.host, e.tcpFlow, e.gen = h, fl, fl.gen
	n.scheduleEvent(timeout, e)
	return sport
}

// SendRawTCPPayload emits a single TCP data packet without any handshake —
// the Phase II traceroute mode for HTTP/TLS decoys ("we do not perform TCP
// handshakes with destinations before tracerouting").
func (h *Host) SendRawTCPPayload(n *Network, dst wire.Endpoint, ttl uint8, ipID uint16, payload []byte) {
	src := wire.Endpoint{Addr: h.Addr, Port: h.allocPort()}
	n.InjectTCP(src, dst, ttl, h.ipID(ipID), wire.TCPPsh|wire.TCPAck, 1, 1, payload)
}

func (h *Host) handleTCP(n *Network, pkt *wire.Packet) bool {
	t := pkt.TCP
	from := wire.Endpoint{Addr: pkt.IP.Src, Port: t.SrcPort}

	// Server side.
	if app, ok := h.tcpServices[t.DstPort]; ok {
		h.serveTCP(n, app, from, t)
		return true
	}

	// Client side.
	key := tcpFlowKey{remote: from, local: t.DstPort}
	fl, ok := h.tcpFlows[key]
	if !ok {
		return false
	}
	local := wire.Endpoint{Addr: h.Addr, Port: t.DstPort}
	switch {
	case fl.state == flowSynSent && t.Flags&wire.TCPSyn != 0 && t.Flags&wire.TCPAck != 0:
		fl.state = flowEstablished
		// Final handshake ACK, then the request payload.
		n.InjectTCP(local, from, fl.ttl, h.ipID(fl.ipID), wire.TCPAck, fl.isn+1, t.Seq+1, nil)
		n.InjectTCP(local, from, fl.ttl, h.ipID(fl.ipID), wire.TCPPsh|wire.TCPAck, fl.isn+1, t.Seq+1, fl.payload)
		return true
	case fl.state == flowSynSent && t.Flags&wire.TCPRst != 0:
		cb := fl.onFail
		h.endFlow(fl)
		if cb != nil {
			cb(n)
		}
		return true
	case fl.state == flowEstablished && len(t.Payload()) > 0:
		cb := fl.onResponse
		h.endFlow(fl)
		if cb != nil {
			cb(n, payloadOf(t.Payload()))
		}
		return true
	}
	return true // packets for a known flow are consumed even when ignored
}

// serveTCP implements the stateless server side: answer SYN with SYN-ACK,
// answer a data segment by invoking the app and replying with its output
// plus FIN. Statelessness keeps memory flat across millions of decoy
// flows.
func (h *Host) serveTCP(n *Network, app TCPApp, from wire.Endpoint, t *wire.TCP) {
	local := wire.Endpoint{Addr: h.Addr, Port: t.DstPort}
	switch {
	case t.Flags&wire.TCPSyn != 0 && t.Flags&wire.TCPAck == 0:
		sisn := uint32(t.SrcPort)<<16 | 0x5678
		n.InjectTCP(local, from, 64, h.ipID(0), wire.TCPSyn|wire.TCPAck, sisn, t.Seq+1, nil)
	case len(t.Payload()) > 0:
		resp := app(n, from, payloadOf(t.Payload()))
		if resp == nil {
			return
		}
		n.InjectTCP(local, from, 64, h.ipID(0), wire.TCPPsh|wire.TCPAck|wire.TCPFin, t.Ack, t.Seq+uint32(len(t.Payload())), resp)
	}
}

func (h *Host) allocPort() uint16 {
	p := h.nextEphemeral
	h.nextEphemeral++
	if h.nextEphemeral == 0 {
		h.nextEphemeral = 32768
	}
	return p
}

func (h *Host) ipID(requested uint16) uint16 {
	if requested != 0 {
		return requested
	}
	h.nextIPID++
	if h.nextIPID == 0 {
		h.nextIPID = 1
	}
	return h.nextIPID
}
