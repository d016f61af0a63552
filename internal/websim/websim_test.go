package websim

import (
	"testing"
	"time"

	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/tlswire"
	"shadowmeter/internal/topology"
	"shadowmeter/internal/wire"
)

var t0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

func buildFleet(t *testing.T, n int) (*netsim.Network, *topology.Topology, *Fleet) {
	t.Helper()
	topo := topology.Build(topology.Config{Seed: 4})
	net := netsim.New(netsim.Config{Start: t0, Path: topo.PathFunc()})
	f := Build(net, topo, Config{Seed: 4, NumSites: n, NumASes: 10})
	return net, topo, f
}

func TestFleetShape(t *testing.T) {
	_, topo, f := buildFleet(t, 80)
	if len(f.Sites) != 80 {
		t.Fatalf("sites = %d", len(f.Sites))
	}
	asns := f.ASNs()
	if len(asns) == 0 || len(asns) > 10 {
		t.Errorf("ASNs = %d", len(asns))
	}
	countries := map[string]int{}
	for _, s := range f.Sites {
		countries[s.Country]++
		if info, ok := topo.Geo.Lookup(s.Addr); !ok || info.ASN != s.ASN {
			t.Errorf("site %s geo mismatch", s.Domain)
		}
	}
	if countries["US"] == 0 {
		t.Error("no US sites — weights broken")
	}
}

func TestSiteServesHTTP(t *testing.T) {
	net, topo, f := buildFleet(t, 10)
	site := f.Sites[0]
	clientAS := topo.HostingASes("DE")[0]
	client := netsim.NewHost(net, topo.AllocHostAddr(clientAS))

	var hostSeen string
	site.OnHost = func(n *netsim.Network, host string, client wire.Addr) { hostSeen = host }

	var body []byte
	req := httpwire.NewGET("decoy123.www.experiment.domain", "/").Encode()
	client.SendTCPRequest(net, wire.Endpoint{Addr: site.Addr, Port: 80}, req, netsim.TCPRequestOpts{
		OnResponse: func(n *netsim.Network, payload []byte) { body = append([]byte(nil), payload...) },
	})
	net.RunUntilIdle()
	resp, err := httpwire.ParseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	// Authentic response despite the Host mismatch (Section 3 footnote 1).
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if hostSeen != "decoy123.www.experiment.domain" {
		t.Errorf("OnHost saw %q", hostSeen)
	}
}

func TestSiteServesTLSAndSNIHook(t *testing.T) {
	net, topo, f := buildFleet(t, 10)
	site := f.Sites[1]
	client := netsim.NewHost(net, topo.AllocHostAddr(topo.HostingASes("FR")[0]))

	var sniSeen string
	site.OnSNI = func(n *netsim.Network, serverName string, client wire.Addr) { sniSeen = serverName }

	var rnd [32]byte
	ch := tlswire.NewClientHello("tlsdecoy.www.experiment.domain", rnd)
	payload, _ := ch.Encode()
	var resp []byte
	client.SendTCPRequest(net, wire.Endpoint{Addr: site.Addr, Port: 443}, payload, netsim.TCPRequestOpts{
		OnResponse: func(n *netsim.Network, p []byte) { resp = append([]byte(nil), p...) },
	})
	net.RunUntilIdle()
	if _, err := tlswire.ParseServerHello(resp); err != nil {
		t.Fatalf("no ServerHello: %v", err)
	}
	if sniSeen != "tlsdecoy.www.experiment.domain" {
		t.Errorf("OnSNI saw %q", sniSeen)
	}
}

func TestFleetDeterministic(t *testing.T) {
	_, _, f1 := buildFleet(t, 40)
	_, _, f2 := buildFleet(t, 40)
	for i := range f1.Sites {
		if f1.Sites[i].Addr != f2.Sites[i].Addr || f1.Sites[i].ASN != f2.Sites[i].ASN {
			t.Fatalf("site %d differs between identical builds", i)
		}
	}
}
