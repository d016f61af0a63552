// Locate observers: a minimal, fully hand-wired demonstration of Phase II.
// We build a 6-router path, plant a DPI exhibitor at hop 4, run the
// hop-by-hop TTL sweep, and show how the minimum leaking TTL plus ICMP
// evidence pins the observer to its exact router — without ever reading
// the device's state.
//
//	go run ./examples/locate-observers
package main

import (
	"fmt"
	"time"

	"shadowmeter/internal/correlate"
	"shadowmeter/internal/decoy"
	"shadowmeter/internal/honeypot"
	"shadowmeter/internal/identifier"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/observer"
	"shadowmeter/internal/resolversim"
	"shadowmeter/internal/traceroute"
	"shadowmeter/internal/vantage"
	"shadowmeter/internal/wire"
)

func main() {
	start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

	// A 6-hop path from the vantage point to a web server.
	routers := make([]*netsim.Router, 6)
	for i := range routers {
		routers[i] = &netsim.Router{
			Name: fmt.Sprintf("r%d", i+1),
			Addr: wire.AddrFrom(10, 0, byte(i+1), 1),
		}
	}
	n := netsim.New(netsim.Config{Start: start, Path: func(src, dst wire.Addr) []*netsim.Router {
		return routers
	}})

	// Honeypot: authoritative DNS + honey website.
	registry := resolversim.NewRegistry()
	codec := identifier.NewCodec(start)
	sites := []*honeypot.Site{{
		Location: "US",
		AuthAddr: wire.MustParseAddr("198.51.100.1"),
		WebAddr:  wire.MustParseAddr("198.51.100.2"),
	}}
	hp := honeypot.Deploy(n, honeypot.Config{Zone: "experiment.domain", Codec: codec}, sites, registry)

	// The destination web server (never shadows).
	web := netsim.NewHost(n, wire.MustParseAddr("203.0.113.80"))
	web.ServeTCP(80, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		return []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	})

	// GROUND TRUTH: a DPI device at hop 4 sniffing HTTP Host headers and
	// resolving every newly-observed domain via the honeypot's auth server.
	origin := observer.Origin{
		Host:     netsim.NewHost(n, wire.MustParseAddr("192.0.2.66")),
		Resolver: sites[0].AuthAddr,
	}
	observer.NewDevice(observer.Profile{
		Name:          "demo-dpi",
		Watch:         map[decoy.Protocol]bool{decoy.HTTP: true},
		OncePerDomain: true,
		Rules: []observer.ProbeRule{{
			Kind: observer.ProbeDNS, Prob: 1, Count: observer.CountDist{Min: 1, Max: 1},
			Delay: observer.DelayDist{Ranges: []observer.DelayRange{{Min: 2 * time.Hour, Max: 2 * time.Hour, Weight: 1}}},
		}},
	}, []observer.Origin{origin}, 99, routers[3])
	fmt.Println("ground truth: DPI exhibitor planted at hop 4 (the pipeline below never reads it)")

	// The vantage point and the measurement pipeline.
	prov := &vantage.Provider{Name: "demo", Market: vantage.Global}
	vpAddr := wire.MustParseAddr("100.64.0.1")
	vp := &vantage.VP{Provider: prov, Host: netsim.NewHost(n, vpAddr), Addr: vpAddr}

	gen := decoy.NewGenerator("experiment.domain", start)
	engine := traceroute.NewEngine(gen)
	engine.MaxTTL = 12

	// Phase II: TTL sweep toward the web server over HTTP.
	dst := wire.Endpoint{Addr: wire.MustParseAddr("203.0.113.80"), Port: 80}
	sweep, err := engine.Sweep(n, vp, dst, decoy.HTTP)
	if err != nil {
		panic(err)
	}
	n.RunUntilIdle()

	// Correlate: which probe labels re-appeared at the honeypot?
	corr := correlate.New(codec)
	for ttl := 1; ttl <= engine.MaxTTL; ttl++ {
		p := sweep.Probes[uint8(ttl)]
		if p == nil {
			continue
		}
		corr.AddSent(&correlate.Sent{
			Label: p.Label, Domain: p.Domain, Protocol: decoy.HTTP,
			VP: vp.Addr, Dst: dst, DstName: "demo-web", Time: p.SentAt, TTL: p.TTL,
			Phase: correlate.PhaseII,
		})
	}
	events := corr.Classify(hp.Log.Snapshot())
	fmt.Printf("honeypot captured %d unsolicited requests bearing sweep identifiers\n\n", len(events))

	res := traceroute.Analyze(sweep, correlate.LeakedLabels(events))
	fmt.Printf("sweep evidence (destination %d hops away):\n", res.DestDistance)
	leaked := correlate.LeakedLabels(events)
	labels := sweep.Labels()
	for ttl := 1; ttl <= 8; ttl++ {
		mark := " "
		for label, lt := range labels {
			if int(lt) == ttl && leaked[label] {
				mark = "LEAKED"
			}
		}
		hop := sweep.HopAddr(ttl)
		hopStr := "(destination reached)"
		if !hop.IsZero() {
			hopStr = hop.String()
		}
		fmt.Printf("  TTL %2d  hop %-20s %s\n", ttl, hopStr, mark)
	}

	fmt.Printf("\n==> observer located at hop %d (router %s), normalized position %d/10\n",
		res.ObserverHop, res.ObserverAddr, res.NormalizedHop)
	if res.ObserverHop == 4 {
		fmt.Println("    matches the planted ground truth exactly.")
	}

	// Bonus: decode one leaked identifier to show what it carries.
	for label := range leaked {
		id, err := codec.Decode(label)
		if err == nil {
			fmt.Printf("\nsample leaked identifier %q decodes to:\n", label)
			fmt.Printf("    sent %s from VP %s toward %s with initial TTL %d\n",
				id.Time.Format(time.RFC3339), id.VP, id.Dst, id.TTL)
		}
		break
	}
}
