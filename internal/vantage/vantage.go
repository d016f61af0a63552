// Package vantage implements the VPN-based measurement platform of
// Section 3: commercial VPN providers (Table 5), their datacenter vantage
// points, VP address discovery via honeypot connections, and the provider
// screening of Appendix E (TTL-resetting and residential providers are
// excluded before the experiment).
package vantage

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"shadowmeter/internal/netsim"
	"shadowmeter/internal/topology"
	"shadowmeter/internal/wire"
)

// Market is a provider's market segment.
type Market int

// Markets.
const (
	Global Market = iota // globally accessible providers
	CN                   // mainland-China providers
)

// String names the market.
func (m Market) String() string {
	if m == CN {
		return "CN"
	}
	return "Global"
}

// Provider is one commercial VPN service.
type Provider struct {
	Name   string
	Market Market
	URL    string
	// ResetsTTL marks providers whose egress rewrites the IP TTL of every
	// outgoing packet, breaking hop-by-hop tracerouting (Appendix E). Such
	// providers are detected in screening and excluded.
	ResetsTTL bool
	// Residential marks user-hosted (residential) node pools, excluded for
	// the ethical reasons of Appendix A.
	Residential bool
}

// Providers is the Table 5 listing: 6 global + 13 CN datacenter providers,
// plus screening foils (one TTL-resetting, one residential) that the
// platform must reject.
var Providers = []Provider{
	{Name: "Anonine", Market: Global, URL: "https://anonine.com/"},
	{Name: "AzireVPN", Market: Global, URL: "https://www.azirevpn.com/"},
	{Name: "Cryptostorm", Market: Global, URL: "https://cryptostorm.is/"},
	{Name: "HideMe", Market: Global, URL: "https://hide.me/"},
	{Name: "PrivateInt", Market: Global, URL: "https://www.privateinternetaccess.com/"},
	{Name: "PureVPN", Market: Global, URL: "https://www.purevpn.com/"},
	{Name: "QiXun", Market: CN, URL: "https://www.ipkuip.com/product/Buy?id=3"},
	{Name: "XunYou", Market: CN, URL: "https://www.ipkuip.com/product/Buy?id=6"},
	{Name: "YOYO", Market: CN, URL: "https://www.ipkuip.com/product/Buy?id=51"},
	{Name: "BeiKe", Market: CN, URL: "https://www.ipkuip.com/product/Buy?id=44"},
	{Name: "SunYunD", Market: CN, URL: "https://www.ipkuip.com/product/Buy?id=92"},
	{Name: "HuoJian", Market: CN, URL: "https://www.ipkuip.com/product/Buy?id=128"},
	{Name: "DuoDuo", Market: CN, URL: "https://www.ipkuip.com/product/Buy?id=116"},
	{Name: "MoGu", Market: CN, URL: "https://www.juip.com/product/Buy?id=1032"},
	{Name: "QiangZi", Market: CN, URL: "https://www.juip.com/product/Buy"},
	{Name: "XunLian", Market: CN, URL: "https://www.juip.com/product/Buy"},
	{Name: "TianTian", Market: CN, URL: "https://www.juip.com/product/Buy?id=71"},
	{Name: "JiKe", Market: CN, URL: "https://www.juip.com/product/Buy"},
	{Name: "XiGua", Market: CN, URL: "https://www.juip.com/product/Buy"},
	// Screening foils — never part of the final platform.
	{Name: "TTLMangleVPN", Market: Global, URL: "https://example.invalid/", ResetsTTL: true},
	{Name: "HomeNodesVPN", Market: Global, URL: "https://example.invalid/", Residential: true},
}

// VP is one vantage point: a VPN egress node the scheduler can send decoys
// from.
type VP struct {
	Provider *Provider
	Host     *netsim.Host
	Addr     wire.Addr
	// Discovered metadata (filled by DiscoverAddresses, not trusted from
	// the provider):
	DiscoveredAddr wire.Addr
	Country        string
	Province       string // CN VPs
	ASN            int
	Hosting        bool
}

// SendUDP emits a UDP datagram from the VP with the requested initial TTL,
// applying the provider's TTL mangling if any (ground truth the screening
// phase must catch).
func (vp *VP) SendUDP(n *netsim.Network, dst wire.Endpoint, ttl uint8, ipID uint16, payload []byte) {
	vp.Host.SendUDPOneShot(n, dst, vp.effectiveTTL(ttl), ipID, payload)
}

// SendUDPRequest sends a UDP request expecting a reply (decoy Phase I).
func (vp *VP) SendUDPRequest(n *netsim.Network, dst wire.Endpoint, payload []byte, opts netsim.UDPRequestOpts) {
	opts.TTL = vp.effectiveTTL(opts.TTL)
	vp.Host.SendUDPRequest(n, dst, payload, opts)
}

// SendTCPRequest opens a handshake + request exchange (HTTP/TLS decoys).
func (vp *VP) SendTCPRequest(n *netsim.Network, dst wire.Endpoint, payload []byte, opts netsim.TCPRequestOpts) {
	opts.TTL = vp.effectiveTTL(opts.TTL)
	vp.Host.SendTCPRequest(n, dst, payload, opts)
}

// SendRawTCP emits a bare TCP data packet (Phase II traceroute mode).
func (vp *VP) SendRawTCP(n *netsim.Network, dst wire.Endpoint, ttl uint8, ipID uint16, payload []byte) {
	vp.Host.SendRawTCPPayload(n, dst, vp.effectiveTTL(ttl), ipID, payload)
}

func (vp *VP) effectiveTTL(ttl uint8) uint8 {
	if vp.Provider.ResetsTTL {
		return 64
	}
	if ttl == 0 {
		return 64
	}
	return ttl
}

// Platform is the recruited VP fleet.
type Platform struct {
	VPs []*VP

	mu       sync.Mutex
	excluded map[string]string // provider -> reason
}

// Config parameterizes platform construction.
type Config struct {
	Seed int64
	// VPsPerGlobalProvider scales the global fleet (paper: 2,179 over 6
	// providers ≈ 363 each). 0 means 24.
	VPsPerGlobalProvider int
	// VPsPerCNProvider scales the CN fleet (paper: 2,185 over 13 ≈ 168
	// each). 0 means 12.
	VPsPerCNProvider int
}

// Build places VPs for every (non-foil) provider into hosting ASes of the
// topology: global providers across countries weighted by the country
// table, CN providers across provinces. Foil providers also get nodes —
// screening must find and exclude them.
func Build(n *netsim.Network, topo *topology.Topology, cfg Config) *Platform {
	if cfg.VPsPerGlobalProvider <= 0 {
		cfg.VPsPerGlobalProvider = 24
	}
	if cfg.VPsPerCNProvider <= 0 {
		cfg.VPsPerCNProvider = 12
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Platform{excluded: make(map[string]string)}

	// Weighted country pool for global placement. Only VPN-rentable
	// datacenter ASes qualify — CDN/web-hosting and service-operator ASes
	// are hosting-flagged in the geo DB but do not sell VPN egress.
	var pool []string
	for _, c := range topology.Countries {
		if c.Code == "CN" {
			continue
		}
		if len(vpnHosting(topo, c.Code)) == 0 {
			continue
		}
		for i := 0; i < c.Weight; i++ {
			pool = append(pool, c.Code)
		}
	}
	cnHosting := vpnHosting(topo, "CN")
	cnEyeball := nonHosting(topo.CountryASes("CN"))

	for i := range Providers {
		prov := &Providers[i]
		var count int
		if prov.Market == CN {
			count = cfg.VPsPerCNProvider
		} else {
			count = cfg.VPsPerGlobalProvider
		}
		for j := 0; j < count; j++ {
			var as *topology.AS
			switch {
			case prov.Residential:
				// Residential pools land in eyeball (non-hosting) networks.
				all := nonHosting(topo.CountryASes(pool[rng.Intn(len(pool))]))
				if len(all) == 0 {
					continue
				}
				as = all[rng.Intn(len(all))]
			case prov.Market == CN:
				if prov.Residential && len(cnEyeball) > 0 {
					as = cnEyeball[rng.Intn(len(cnEyeball))]
				} else {
					as = cnHosting[rng.Intn(len(cnHosting))]
				}
			default:
				hosting := vpnHosting(topo, pool[rng.Intn(len(pool))])
				as = hosting[rng.Intn(len(hosting))]
			}
			addr := topo.AllocHostAddr(as)
			vp := &VP{
				Provider: prov,
				Host:     netsim.NewHost(n, addr),
				Addr:     addr,
				Province: as.Province,
			}
			p.VPs = append(p.VPs, vp)
		}
	}
	return p
}

// vpnHosting returns the datacenter ASes a VPN provider could rent egress
// in: hosting ASes whose name marks them as generic datacenters.
func vpnHosting(topo *topology.Topology, country string) []*topology.AS {
	var out []*topology.AS
	for _, as := range topo.HostingASes(country) {
		if strings.Contains(as.Name, "-DC-") || strings.Contains(as.Name, "IDC") {
			out = append(out, as)
		}
	}
	return out
}

func nonHosting(ases []*topology.AS) []*topology.AS {
	var out []*topology.AS
	for _, as := range ases {
		if !as.Hosting {
			out = append(out, as)
		}
	}
	return out
}

// EchoService returns a TCPApp that answers with the textual source address
// it observed — the "what is my IP" endpoint VPs use for discovery.
func EchoService() netsim.TCPApp {
	return func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		return []byte(from.Addr.String())
	}
}

// DiscoverAddresses implements the paper's VP geolocation: each VP opens a
// TCP connection to the echo service at echo (run by the honeypot
// operator); the service reports the source address it observed, which the
// platform then geolocates via lookup. Advertised provider locations are
// never trusted. It runs the network to completion.
func (p *Platform) DiscoverAddresses(n *netsim.Network, echo wire.Endpoint, lookup func(wire.Addr) (country string, asn int, hosting bool, ok bool)) {
	for _, vp := range p.VPs {
		vp := vp
		vp.Host.SendTCPRequest(n, echo, []byte("WHOAMI"), netsim.TCPRequestOpts{
			OnResponse: func(n *netsim.Network, payload []byte) {
				addr, err := wire.ParseAddr(string(payload))
				if err != nil {
					return
				}
				vp.DiscoveredAddr = addr
				if country, asn, hosting, ok := lookup(addr); ok {
					vp.Country = country
					vp.ASN = asn
					vp.Hosting = hosting
				}
			},
		})
	}
	n.RunUntilIdle()
}

// Screen excludes providers that (a) reset TTLs — detected by sending two
// probes with distinct initial TTLs to a controlled raw listener and
// comparing arrival TTLs — or (b) run residential nodes, detected when the
// majority of a provider's discovered addresses lack the hosting label.
// It returns the per-provider exclusion reasons.
func (p *Platform) Screen(n *netsim.Network, ttlProbe func(vp *VP, ttl uint8) (arrivalTTL uint8, ok bool)) map[string]string {
	// Group by provider but probe in first-seen VP order: ranging over a
	// pointer-keyed map would reorder the probes (and the whole event
	// schedule) run to run.
	byProvider := make(map[*Provider][]*VP)
	var order []*Provider
	for _, vp := range p.VPs {
		if _, ok := byProvider[vp.Provider]; !ok {
			order = append(order, vp.Provider)
		}
		byProvider[vp.Provider] = append(byProvider[vp.Provider], vp)
	}

	for _, prov := range order {
		vps := byProvider[prov]
		// (a) TTL-reset detection on the provider's first VP.
		vp := vps[0]
		a1, ok1 := ttlProbe(vp, 19)
		a2, ok2 := ttlProbe(vp, 27)
		if ok1 && ok2 && a1 == a2 {
			p.exclude(prov.Name, "resets IP TTL (breaks hop-by-hop traceroute)")
			continue
		}
		// (b) Residential detection: hosting-label majority.
		hosting := 0
		for _, v := range vps {
			if v.Hosting {
				hosting++
			}
		}
		if hosting*2 < len(vps) {
			p.exclude(prov.Name, "majority of nodes lack hosting label (residential)")
		}
	}

	// Drop VPs of excluded providers.
	var kept []*VP
	for _, vp := range p.VPs {
		if _, bad := p.excluded[vp.Provider.Name]; !bad {
			kept = append(kept, vp)
		}
	}
	p.VPs = kept
	return p.Excluded()
}

func (p *Platform) exclude(provider, reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.excluded[provider] = reason
}

// Excluded returns a copy of the exclusion map.
func (p *Platform) Excluded() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.excluded))
	for k, v := range p.excluded {
		out[k] = v
	}
	return out
}

// Summary is one row of Table 1.
type Summary struct {
	Segment   string
	Providers int
	IPs       int
	ASes      int
	Regions   int // countries (global) or provinces (CN)
}

// Capabilities computes Table 1 from discovered metadata.
func (p *Platform) Capabilities() []Summary {
	type agg struct {
		providers map[string]bool
		ips       int
		ases      map[int]bool
		regions   map[string]bool
	}
	newAgg := func() *agg {
		return &agg{providers: map[string]bool{}, ases: map[int]bool{}, regions: map[string]bool{}}
	}
	global, cn := newAgg(), newAgg()
	for _, vp := range p.VPs {
		a := global
		region := vp.Country
		if vp.Provider.Market == CN {
			a = cn
			region = vp.Province
		}
		a.providers[vp.Provider.Name] = true
		a.ips++
		a.ases[vp.ASN] = true
		if region != "" {
			a.regions[region] = true
		}
	}
	return []Summary{
		{Segment: "Global (excl. CN)", Providers: len(global.providers), IPs: global.ips, ASes: len(global.ases), Regions: len(global.regions)},
		{Segment: "China (CN mainland)", Providers: len(cn.providers), IPs: cn.ips, ASes: len(cn.ases), Regions: len(cn.regions)},
		{Segment: "Total", Providers: len(global.providers) + len(cn.providers), IPs: global.ips + cn.ips,
			ASes: len(global.ases) + len(cn.ases), Regions: len(global.regions) + len(cn.regions)},
	}
}

// CountryCodes lists the distinct countries of kept VPs.
func (p *Platform) CountryCodes() []string {
	set := make(map[string]bool)
	for _, vp := range p.VPs {
		if vp.Country != "" {
			set[vp.Country] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// String renders a short platform description.
func (p *Platform) String() string {
	return fmt.Sprintf("platform: %d VPs, %d countries", len(p.VPs), len(p.CountryCodes()))
}
