// Package pairresolver implements the Appendix E noise-mitigation
// heuristics: detecting on-path DNS interception with "pair resolvers" and
// removing affected vantage points before the experiment.
//
// A pair resolver of a target resolver is another address in the same /24
// that offers no DNS service (e.g. 1.1.1.4 for 1.1.1.1). Queries to both
// share a forwarding path; if a query to the pair address elicits a DNS
// response, an interception device answered from a spoofed address, and
// the VP's paths cannot be trusted for locating observers.
//
// The package also provides the ground-truth InterceptorTap used to seed
// interception into test worlds — the screening code never reads it.
package pairresolver

import (
	"sync"
	"time"

	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/vantage"
	"shadowmeter/internal/wire"
)

// PairAddr derives the pair-resolver address: same /24, host octet offset
// by +3 (mod 254, avoiding 0, 255 and the resolver itself), mirroring the
// paper's 1.1.1.1 -> 1.1.1.4 example.
func PairAddr(resolver wire.Addr) wire.Addr {
	host := int(resolver[3])
	for delta := 3; ; delta++ {
		cand := (host+delta-1)%254 + 1 // stays in 1..254
		if byte(cand) != resolver[3] {
			return wire.Addr{resolver[0], resolver[1], resolver[2], byte(cand)}
		}
	}
}

// Report summarizes one screening run.
type Report struct {
	Tested       int
	Removed      int
	RemovedAddrs []wire.Addr
}

// Screen sends a DNS query from every VP to the pair address of every
// target resolver. VPs receiving any DNS response are removed from the
// platform (interception detected on their paths). It runs the network to
// completion and returns the report.
func Screen(n *netsim.Network, p *vantage.Platform, resolvers []wire.Addr, timeout time.Duration) Report {
	if timeout == 0 {
		timeout = 3 * time.Second
	}
	var mu sync.Mutex
	intercepted := make(map[*vantage.VP]bool)

	for _, vp := range p.VPs {
		vp := vp
		for i, r := range resolvers {
			pair := PairAddr(r)
			q := dnswire.NewQuery(uint16(i+1), "pair-check.experiment.domain", dnswire.TypeA)
			payload, err := q.Encode()
			if err != nil {
				continue
			}
			vp.SendUDPRequest(n, wire.Endpoint{Addr: pair, Port: 53}, payload, netsim.UDPRequestOpts{
				Timeout: timeout,
				OnReply: func(n *netsim.Network, resp []byte) {
					if _, err := dnswire.Decode(resp); err == nil {
						mu.Lock()
						intercepted[vp] = true
						mu.Unlock()
					}
				},
			})
		}
	}
	n.RunUntilIdle()

	report := Report{Tested: len(p.VPs)}
	var kept []*vantage.VP
	for _, vp := range p.VPs {
		if intercepted[vp] {
			report.Removed++
			report.RemovedAddrs = append(report.RemovedAddrs, vp.Addr)
			continue
		}
		kept = append(kept, vp)
	}
	p.VPs = kept
	return report
}

// InterceptorTap is ground truth for tests: an on-path DNS interception
// device that answers *every* UDP/53 query it sees with a spoofed response
// from the original destination address — exactly the behavior the pair-
// resolver heuristic detects (the device cannot tell real resolvers from
// pair addresses, so it spoofs for both).
type InterceptorTap struct {
	// SpoofAddr is the A record value injected into spoofed answers.
	SpoofAddr wire.Addr

	mu       sync.Mutex
	answered int64
}

// Answered reports how many queries the device spoofed.
func (it *InterceptorTap) Answered() int64 {
	it.mu.Lock()
	defer it.mu.Unlock()
	return it.answered
}

// Observe implements netsim.Tap.
func (it *InterceptorTap) Observe(n *netsim.Network, at *netsim.Router, pkt *wire.Packet) {
	if pkt.UDP == nil || pkt.UDP.DstPort != 53 {
		return
	}
	q, err := dnswire.Decode(pkt.UDP.Payload())
	if err != nil || q.Header.QR || len(q.Questions) == 0 {
		return
	}
	it.mu.Lock()
	it.answered++
	it.mu.Unlock()

	resp := dnswire.NewResponse(q, dnswire.RcodeNoError)
	resp.Answers = append(resp.Answers, dnswire.RR{
		Name: q.QName(), Type: dnswire.TypeA, TTL: 60, Addr: it.SpoofAddr,
	})
	raw, err := resp.Encode()
	if err != nil {
		return
	}
	// Spoof: source is the original destination, as if the resolver (or
	// pair address) had answered.
	flow := pkt.Flow()
	n.InjectUDP(flow.Dst, flow.Src, 64, 0, raw)
}
