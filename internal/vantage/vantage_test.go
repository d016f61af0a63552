package vantage

import (
	"testing"
	"time"

	"shadowmeter/internal/netsim"
	"shadowmeter/internal/topology"
	"shadowmeter/internal/wire"
)

var t0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

func buildWorld(t *testing.T) (*netsim.Network, *topology.Topology, *Platform) {
	t.Helper()
	topo := topology.Build(topology.Config{Seed: 9})
	n := netsim.New(netsim.Config{Start: t0, Path: topo.PathFunc()})
	p := Build(n, topo, Config{Seed: 9, VPsPerGlobalProvider: 8, VPsPerCNProvider: 4})
	return n, topo, p
}

// discoverAndScreen runs the full pre-experiment pipeline against an echo
// host and a raw TTL-reporting listener.
func discoverAndScreen(t *testing.T, n *netsim.Network, topo *topology.Topology, p *Platform) {
	t.Helper()
	// Echo service in a US hosting AS.
	usAS := topo.HostingASes("US")[0]
	echoAddr := topo.AllocHostAddr(usAS)
	echoHost := netsim.NewHost(n, echoAddr)
	echoHost.ServeTCP(80, EchoService())

	p.DiscoverAddresses(n, wire.Endpoint{Addr: echoAddr, Port: 80}, func(a wire.Addr) (string, int, bool, bool) {
		info, ok := topo.Geo.Lookup(a)
		if !ok {
			return "", 0, false, false
		}
		return info.Country, info.ASN, info.Hosting, true
	})

	// Raw TTL listener: reports arrival TTLs per flow synchronously via a
	// closure the probe callback reads after running the network.
	ttlAddr := topo.AllocHostAddr(usAS)
	lastTTL := make(map[wire.Addr]uint8)
	n.AddHost(ttlAddr, netsim.HandlerFunc(func(n *netsim.Network, pkt *wire.Packet) {
		lastTTL[pkt.IP.Src] = pkt.IP.TTL
	}))
	p.Screen(n, func(vp *VP, ttl uint8) (uint8, bool) {
		delete(lastTTL, vp.Addr)
		vp.SendUDP(n, wire.Endpoint{Addr: ttlAddr, Port: 9}, ttl, 1, []byte("ttlprobe"))
		n.RunUntilIdle()
		got, ok := lastTTL[vp.Addr]
		return got, ok
	})
}

func TestBuildPlacesVPs(t *testing.T) {
	_, _, p := buildWorld(t)
	// 6 global * 8 + 13 CN * 4 + foils (8 + 8).
	want := 6*8 + 13*4 + 16
	if len(p.VPs) != want {
		t.Fatalf("VPs = %d, want %d", len(p.VPs), want)
	}
	cn := 0
	for _, vp := range p.VPs {
		if vp.Provider.Market == CN {
			cn++
			if vp.Province == "" {
				t.Errorf("CN VP without province")
			}
		}
	}
	if cn != 13*4 {
		t.Errorf("CN VPs = %d", cn)
	}
}

func TestDiscoveryFindsTrueAddresses(t *testing.T) {
	n, topo, p := buildWorld(t)
	discoverAndScreen(t, n, topo, p)
	for _, vp := range p.VPs[:20] {
		if vp.DiscoveredAddr != vp.Addr {
			t.Errorf("discovered %v, true %v", vp.DiscoveredAddr, vp.Addr)
		}
		if vp.Country == "" {
			t.Errorf("VP %v has no discovered country", vp.Addr)
		}
	}
}

func TestScreeningExcludesFoils(t *testing.T) {
	n, topo, p := buildWorld(t)
	discoverAndScreen(t, n, topo, p)
	excluded := p.Excluded()
	if _, ok := excluded["TTLMangleVPN"]; !ok {
		t.Errorf("TTL-resetting provider not excluded: %v", excluded)
	}
	if _, ok := excluded["HomeNodesVPN"]; !ok {
		t.Errorf("residential provider not excluded: %v", excluded)
	}
	for _, vp := range p.VPs {
		if vp.Provider.ResetsTTL || vp.Provider.Residential {
			t.Fatalf("foil VP survived screening: %s", vp.Provider.Name)
		}
	}
	// Legit providers survive.
	if len(excluded) != 2 {
		t.Errorf("excluded = %v, want only the two foils", excluded)
	}
}

func TestCapabilitiesTable(t *testing.T) {
	n, topo, p := buildWorld(t)
	discoverAndScreen(t, n, topo, p)
	rows := p.Capabilities()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	global, cn, total := rows[0], rows[1], rows[2]
	if global.Providers != 6 || cn.Providers != 13 || total.Providers != 19 {
		t.Errorf("providers = %d/%d/%d", global.Providers, cn.Providers, total.Providers)
	}
	if global.IPs != 48 || cn.IPs != 52 {
		t.Errorf("IPs = %d/%d", global.IPs, cn.IPs)
	}
	if total.IPs != global.IPs+cn.IPs {
		t.Errorf("total IPs inconsistent")
	}
	if global.Regions < 5 {
		t.Errorf("global regions = %d, want several countries", global.Regions)
	}
	if cn.Regions < 3 {
		t.Errorf("CN provinces = %d", cn.Regions)
	}
	if global.ASes == 0 || cn.ASes == 0 {
		t.Error("AS counts empty")
	}
}

func TestTTLMangleGroundTruth(t *testing.T) {
	_, _, p := buildWorld(t)
	var mangle, normal *VP
	for _, vp := range p.VPs {
		if vp.Provider.Name == "TTLMangleVPN" {
			mangle = vp
		} else if !vp.Provider.Residential {
			if normal == nil {
				normal = vp
			}
		}
	}
	if mangle == nil || normal == nil {
		t.Fatal("missing VPs")
	}
	if got := mangle.effectiveTTL(7); got != 64 {
		t.Errorf("mangled TTL = %d, want 64", got)
	}
	if got := normal.effectiveTTL(7); got != 7 {
		t.Errorf("normal TTL = %d, want 7", got)
	}
	if got := normal.effectiveTTL(0); got != 64 {
		t.Errorf("default TTL = %d, want 64", got)
	}
}

func TestByCountryGrouping(t *testing.T) {
	n, topo, p := buildWorld(t)
	discoverAndScreen(t, n, topo, p)
	codes := p.CountryCodes()
	if len(codes) < 5 {
		t.Errorf("countries = %d", len(codes))
	}
	hasCN := false
	for _, c := range codes {
		hasCN = hasCN || c == "CN"
	}
	if !hasCN {
		t.Error("no CN VPs after screening")
	}
}

func TestProviderTable(t *testing.T) {
	global, cn, foils := 0, 0, 0
	for _, prov := range Providers {
		switch {
		case prov.ResetsTTL || prov.Residential:
			foils++
		case prov.Market == CN:
			cn++
		default:
			global++
		}
	}
	if global != 6 || cn != 13 || foils != 2 {
		t.Errorf("provider mix = %d global, %d CN, %d foils", global, cn, foils)
	}
	if Global.String() != "Global" || CN.String() != "CN" {
		t.Error("market names")
	}
}
