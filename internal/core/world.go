package core

import (
	"fmt"
	"math/rand"
	"strings"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/honeypot"
	"shadowmeter/internal/identifier"
	"shadowmeter/internal/intel"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/observer"
	"shadowmeter/internal/pairresolver"
	"shadowmeter/internal/probe"
	"shadowmeter/internal/resolversim"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/topology"
	"shadowmeter/internal/vantage"
	"shadowmeter/internal/websim"
	"shadowmeter/internal/wire"
)

// DNSDest is one DNS decoy destination (Table 4 rows).
type DNSDest struct {
	Name string
	Kind string // "public", "control", "root", "tld"
	Addr wire.Addr
}

// World is the fully wired simulated Internet plus the measurement
// infrastructure deployed on it.
type World struct {
	Cfg  Config
	Net  *netsim.Network
	Topo *topology.Topology
	// Telemetry is the one metrics/tracing set shared by every component
	// of the pipeline (netsim, honeypots, traceroute, correlation, core).
	Telemetry *telemetry.Set

	Registry  *resolversim.Registry
	Honeypots *honeypot.Deployment
	EchoEP    wire.Endpoint
	Web       *websim.Fleet
	Platform  *vantage.Platform

	Blocklist  *intel.Blocklist
	Signatures *intel.SignatureDB
	Codec      *identifier.Codec
	Gen        *decoy.Generator

	// DNSDests is the 36-destination list of Table 4.
	DNSDests []DNSDest
	// ResolverAddrs are just the public-resolver addresses (pair-resolver
	// screening targets).
	ResolverAddrs []wire.Addr

	Interceptors []*pairresolver.InterceptorTap
	// Devices are the deployed on-path exhibitor taps (ground truth, used
	// by tests and ablation benches only — never by the pipeline).
	Devices []*observer.Device
	// resolverServices retains the deployed resolver fleet (DoH enabling,
	// stats inspection in tests).
	resolverServices []*resolversim.Service

	ttlReportAddr wire.Addr
	lastTTL       map[wire.Addr]uint8

	rng *rand.Rand
}

// BuildWorld constructs everything up to (but not including) the decoy
// campaign: topology, DNS ecosystem with shadowing exhibitors, web fleet,
// honeypots, and the screened VP platform.
func BuildWorld(cfg Config) *World {
	cfg = cfg.withDefaults()
	topo := cfg.Topo.InstantiateOrBuild(cfg.Seed)
	w := &World{
		Cfg:        cfg,
		Telemetry:  telemetry.NewSet(),
		Topo:       topo,
		Registry:   resolversim.NewRegistry(),
		Blocklist:  intel.NewBlocklist(),
		Signatures: intel.DefaultSignatureDB(),
		Codec:      identifier.NewCodec(cfg.Start),
		Gen:        decoy.NewGenerator(Zone, cfg.Start),
		lastTTL:    make(map[wire.Addr]uint8),
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0x5EED)),
	}
	w.Net = netsim.New(netsim.Config{
		Start: cfg.Start, Path: w.Topo.PathFunc(),
		LossRate: cfg.LossRate, LossSeed: cfg.Seed ^ 0x10553,
		Telemetry: w.Telemetry, Arena: cfg.Arena,
	})

	w.deployHoneypots()
	w.deployRootsAndTLDs()
	w.deployResolvers()
	w.deployWebFleet()
	w.deployOnPathDevices()
	w.deployInterceptors()
	w.recruitPlatform()
	return w
}

// deployHoneypots places the three sites (US, DE, SG) and the auxiliary
// echo and TTL-report listeners used for platform screening.
func (w *World) deployHoneypots() {
	locations := []string{"US", "DE", "SG"}
	var sites []*honeypot.Site
	for _, loc := range locations {
		as := w.Topo.HostingASes(loc)[0]
		sites = append(sites, &honeypot.Site{
			Location: loc,
			AuthAddr: w.Topo.AllocHostAddr(as),
			WebAddr:  w.Topo.AllocHostAddr(as),
		})
	}
	w.Honeypots = honeypot.Deploy(w.Net, honeypot.Config{Zone: Zone, RecordTTL: 3600, Codec: w.Codec, Telemetry: w.Telemetry}, sites, w.Registry)

	usAS := w.Topo.HostingASes("US")[0]
	echoAddr := w.Topo.AllocHostAddr(usAS)
	echoHost := netsim.NewHost(w.Net, echoAddr)
	echoHost.ServeTCP(80, vantage.EchoService())
	w.EchoEP = wire.Endpoint{Addr: echoAddr, Port: 80}

	w.ttlReportAddr = w.Topo.AllocHostAddr(usAS)
	w.Net.AddHost(w.ttlReportAddr, netsim.HandlerFunc(func(n *netsim.Network, pkt *wire.Packet) {
		w.lastTTL[pkt.IP.Src] = pkt.IP.TTL
	}))
}

// deployRootsAndTLDs stands up the 13 root and 2 TLD referral servers.
func (w *World) deployRootsAndTLDs() {
	for i, r := range resolversim.RootServers {
		w.Topo.AddServiceAS(394350+i, "Root Server Operator "+r.Name, "US", r.Addr, false)
		resolversim.NewReferralServer(w.Net, r.Name, "", r.Addr)
		w.DNSDests = append(w.DNSDests, DNSDest{Name: r.Name, Kind: "root", Addr: r.Addr})
	}
	for i, t := range resolversim.TLDServers {
		w.Topo.AddServiceAS(394380+i, "TLD Registry ."+t.Zone, "US", t.Addr, false)
		resolversim.NewReferralServer(w.Net, "."+t.Zone, t.Zone, t.Addr)
		w.DNSDests = append(w.DNSDests, DNSDest{Name: "." + t.Zone, Kind: "tld", Addr: t.Addr})
	}
}

// deployResolvers builds the 20 public resolvers of Table 4 (with their
// shadowing ground truth) plus the self-built control resolver.
func (w *World) deployResolvers() {
	for i, pr := range resolversim.PublicResolvers {
		as := w.Topo.AddServiceAS(pr.ASN, pr.ASName, pr.Country, pr.Addr, true)
		svc := resolversim.NewService(w.Net, pr.Name, pr.Addr, w.Registry, w.Topo.Geo)
		w.resolverServices = append(w.resolverServices, svc)
		w.DNSDests = append(w.DNSDests, DNSDest{Name: pr.Name, Kind: "public", Addr: pr.Addr})
		w.ResolverAddrs = append(w.ResolverAddrs, pr.Addr)

		egress := []*netsim.Host{netsim.NewHost(w.Net, w.Topo.AllocHostAddr(as))}
		// Implementation-choice retries: every resolver occasionally
		// re-queries upstream, with operator-specific frequency. These are
		// the benign sub-minute DNS-DNS repeats of Figure 4.
		retries := 1 + int(w.rng.Int63n(2))
		retryProb := 0.15 + w.rng.Float64()*0.35
		inst := &resolversim.Instance{Name: "default", Egress: egress, ExtraRetries: retries, RetryProb: retryProb}

		switch pr.Name {
		case "Yandex":
			ex := observer.NewExhibitor(yandexProfile(), w.securityVendorOrigins("yandex-vendor", 4, 0.50), w.Cfg.Seed+101)
			ex.SetKindOrigins(observer.ProbeDNS, w.googleLookupOrigins(pr.ASN, 3, 0.05))
			inst.Exhibitor = &observer.PathSampledExhibitor{Inner: ex, Fraction: yandexPathFraction, Salt: 11}
		case "OneDNS":
			ex := observer.NewExhibitor(resolverHDNSProfile("onedns-dst"), w.securityVendorOrigins("onedns-vendor", 3, 0.55), w.Cfg.Seed+102)
			ex.SetKindOrigins(observer.ProbeDNS, w.googleLookupOrigins(pr.ASN, 2, 0.05))
			inst.Exhibitor = &observer.PathSampledExhibitor{Inner: ex, Fraction: oneDNSPathFraction, Salt: 13}
		case "DNSPAI":
			ex := observer.NewExhibitor(resolverHDNSProfile("dnspai-dst"), w.securityVendorOrigins("dnspai-vendor", 3, 0.50), w.Cfg.Seed+103)
			ex.SetKindOrigins(observer.ProbeDNS, w.googleLookupOrigins(pr.ASN, 2, 0.05))
			inst.Exhibitor = &observer.PathSampledExhibitor{Inner: ex, Fraction: dnspaiPathFraction, Salt: 17}
		case "VERCARA":
			ex := observer.NewExhibitor(vercaraProfile(), w.googleLookupOrigins(pr.ASN, 3, 0.05), w.Cfg.Seed+104)
			inst.Exhibitor = &observer.PathSampledExhibitor{Inner: ex, Fraction: vercaraPathFraction, Salt: 19}
		case "114DNS":
			// Anycast split (§5.1 case II): CN instances shadow, the
			// default (US) instance does not. The CN exhibitor's probes
			// originate from 4 ASes: CHINANET backbone, a provincial ISP, a
			// cloud platform, and Google lookups.
			cnOrigins := w.cn114Origins()
			ex := observer.NewExhibitor(dns114Profile(), cnOrigins, w.Cfg.Seed+105)
			ex.SetKindOrigins(observer.ProbeHTTP, w.securityVendorOrigins("114-vendor", 3, 0.55))
			ex.SetKindOrigins(observer.ProbeHTTPS, w.securityVendorOrigins("114-vendor-tls", 2, 0.62))
			cn := &resolversim.Instance{
				Name: "cn", Countries: map[string]bool{"CN": true},
				Egress:       []*netsim.Host{netsim.NewHost(w.Net, w.Topo.AllocHostAddr(as))},
				ExtraRetries: retries, RetryProb: retryProb,
				Exhibitor: &observer.PathSampledExhibitor{Inner: ex, Fraction: dns114CNFraction, Salt: 23},
			}
			svc.AddInstance(cn)
		case "DNSPod", "Baidu", "CNNIC":
			inst.Exhibitor = observer.NewExhibitor(minorResolverProfile(pr.Name+"-minor"), w.googleLookupOrigins(pr.ASN, 1, 0), w.Cfg.Seed+int64(200+i))
		}
		svc.AddInstance(inst)
	}

	// Self-built control resolver (never shadows, never retries oddly).
	ctrlAS := w.Topo.HostingASes("DE")[0]
	ctrlAddr := w.Topo.AllocHostAddr(ctrlAS)
	ctrl := resolversim.NewService(w.Net, "self-built", ctrlAddr, w.Registry, w.Topo.Geo)
	ctrl.AddInstance(&resolversim.Instance{
		Name:   "default",
		Egress: []*netsim.Host{netsim.NewHost(w.Net, w.Topo.AllocHostAddr(ctrlAS))},
	})
	w.DNSDests = append(w.DNSDests, DNSDest{Name: "self-built", Kind: "control", Addr: ctrlAddr})
}

// deployWebFleet builds the Tranco-like destination fleet and installs
// destination-side SNI/Host exhibitors on a deterministic subset
// (Table 2: TLS shadowing is mostly at the destination).
func (w *World) deployWebFleet() {
	w.Web = websim.Build(w.Net, w.Topo, websim.Config{
		Seed: w.Cfg.Seed + 7, NumSites: w.Cfg.WebSites, NumASes: w.Cfg.WebASes,
	})
	// Home CN web-hosting ASes round-robin over the populated provinces the
	// paper names (§5.2 case III), so inbound paths traverse their
	// provincial cores.
	cnHomes := []string{
		"Jiangsu", "Guangdong", "Zhejiang", "Shanghai", "Sichuan",
		"Fujian", "Beijing", "Hubei", "Shandong", "Henan",
	}
	cnIdx := 0
	seenCNAS := make(map[int]bool)
	for _, site := range w.Web.Sites {
		if site.Country != "CN" || seenCNAS[site.ASN] {
			continue
		}
		seenCNAS[site.ASN] = true
		if as := w.Topo.AS(site.ASN); as != nil {
			as.Province = cnHomes[cnIdx%len(cnHomes)]
			cnIdx++
		}
	}
	shadowCountries := map[string]bool{"CN": true, "US": true, "CA": true, "AD": true}
	for _, site := range w.Web.Sites {
		if !shadowCountries[site.Country] {
			continue
		}
		// A handful of candidate sites retain SNI for a fraction of their
		// client paths (Table 2: TLS shadowing is 65% at-destination); Host
		// retention at the destination is rarer still (HTTP 2.3% at 10).
		h := site.Rank*2654435761 + int(w.Cfg.Seed)
		if h%7 == 0 {
			ex := observer.NewExhibitor(sniDestProfile(fmt.Sprintf("sni-dst-%d", site.Rank)),
				w.siteOrigins(site, 0.50), w.Cfg.Seed+int64(1000+site.Rank))
			ps := &observer.PathSampledExhibitor{Inner: ex, Fraction: 0.60, Salt: uint32(site.Rank)}
			site.OnSNI = func(n *netsim.Network, serverName string, client wire.Addr) {
				ps.ObserveQuery(n, serverName, client)
			}
		}
		if h%60 == 3 {
			ex := observer.NewExhibitor(sniDestProfile(fmt.Sprintf("host-dst-%d", site.Rank)),
				w.siteOrigins(site, 0.50), w.Cfg.Seed+int64(2000+site.Rank))
			ps := &observer.PathSampledExhibitor{Inner: ex, Fraction: 0.15, Salt: uint32(site.Rank + 7)}
			site.OnHost = func(n *netsim.Network, host string, client wire.Addr) {
				ps.ObserveQuery(n, host, client)
			}
		}
	}
}

// deployOnPathDevices attaches the on-wire DPI exhibitors whose locations
// Table 2/3 and §5.2 describe.
func (w *World) deployOnPathDevices() {
	backbone := w.Topo.ChinanetBackbone()

	// CHINANET backbone: tap two core routers and one international
	// gateway with HTTP/TLS watchers probing from CN ISP origins.
	// HTTP is observed on the wire far more often than TLS (Table 2:
	// 97.7% vs 35% of problematic paths have mid-path observers), so the
	// HTTP taps cover ~3x the client paths the TLS taps do.
	cnOrigins := w.cnISPOrigins(5, 0.32)
	for i, ridx := range []int{0, 1, len(backbone.Routers) - 1} {
		w.Devices = append(w.Devices, observer.NewDevice(
			backboneDeviceProfile(fmt.Sprintf("chinanet-dpi-http-%d", i), decoy.HTTP, 0.16, uint32(31+i)),
			cnOrigins, w.Cfg.Seed+int64(300+i), backbone.Routers[ridx]))
		w.Devices = append(w.Devices, observer.NewDevice(
			backboneDeviceProfile(fmt.Sprintf("chinanet-dpi-tls-%d", i), decoy.TLS, 0.05, uint32(131+i)),
			cnOrigins, w.Cfg.Seed+int64(320+i), backbone.Routers[ridx]))
	}

	// Provincial HTTP observers (Jiangsu x2, Hubei, Shanghai): §5.2 case
	// III — populated provinces, origins in local ISPs.
	for i, asn := range []int{137697, topology.ASNJiangsuBackbone, 58563, 4812} {
		as := w.Topo.AS(asn)
		if as == nil || len(as.Routers) == 0 {
			continue
		}
		origins := w.asOrigins(as, 2, 0.45, wire.Addr{})
		// Provincial DPI sits on the core (uplink) router — the hop that
		// actually carries transit toward the backbone.
		w.Devices = append(w.Devices, observer.NewDevice(
			backboneDeviceProfile(fmt.Sprintf("prov-dpi-http-%d", asn), decoy.HTTP, 0.35, uint32(57+i)),
			origins, w.Cfg.Seed+int64(400+i), as.Routers[len(as.Routers)-1]))
		w.Devices = append(w.Devices, observer.NewDevice(
			backboneDeviceProfile(fmt.Sprintf("prov-dpi-tls-%d", asn), decoy.TLS, 0.12, uint32(157+i)),
			origins, w.Cfg.Seed+int64(430+i), as.Routers[len(as.Routers)-1]))
	}

	// AS40444 and AS29988: HTTP decoys trigger unsolicited DNS only, from
	// the observers' own networks.
	for i, asn := range []int{topology.ASNConstantContact, topology.ASNRogers} {
		as := w.Topo.AS(asn)
		origins := w.asOrigins(as, 2, 0.10, w.Honeypots.Sites[0].AuthAddr)
		w.Devices = append(w.Devices, observer.NewDevice(
			borderDeviceProfile(fmt.Sprintf("border-dpi-%d", asn), 0.15, uint32(71+i)),
			origins, w.Cfg.Seed+int64(500+i), as.Routers[0]))
	}

	// One gateway is a real border router: it answers BGP on 179. The §5.2
	// port scan should find most observers closed and 179 the most common
	// open port.
	gw := backbone.Routers[len(backbone.Routers)-1]
	bgpHost := netsim.NewHost(w.Net, gw.Addr)
	bgpHost.ServeTCP(179, probe.BGPBanner(gw.Name))

	// Rare on-path DNS observers (Table 3 DNS section). They track only
	// resolver-bound queries, so root/TLD/control paths stay clean.
	resolverDsts := make(map[wire.Addr]bool, len(w.ResolverAddrs))
	for _, a := range w.ResolverAddrs {
		resolverDsts[a] = true
	}
	for i, asn := range []int{topology.ASNHostRoyale, 4808, topology.ASNZenlayer} {
		as := w.Topo.AS(asn)
		if as == nil || len(as.Routers) == 0 {
			continue
		}
		origins := w.asOrigins(as, 1, 0.05, w.Honeypots.Sites[0].AuthAddr)
		for r := 0; r < len(as.Routers) && r < 2; r++ {
			w.Devices = append(w.Devices, observer.NewDevice(
				dnsWireDeviceProfile(fmt.Sprintf("dns-dpi-%d-%d", asn, r), uint32(83+i*4+r), resolverDsts),
				origins, w.Cfg.Seed+int64(600+i*4+r), as.Routers[r]))
		}
	}
}

// deployInterceptors installs Appendix E ground truth: DNS interception
// devices on the edge routers of the first N VP-hosting ASes.
func (w *World) deployInterceptors() {
	if w.Cfg.InterceptedVPASes <= 0 {
		return
	}
	installed := 0
	for _, c := range topology.Countries {
		if installed >= w.Cfg.InterceptedVPASes {
			break
		}
		for _, as := range w.Topo.HostingASes(c.Code) {
			if installed >= w.Cfg.InterceptedVPASes {
				break
			}
			// Only VP datacenter ASes: an interceptor on a resolver
			// operator's edge would sit on EVERY client's path to that
			// resolver, not on the access network Appendix E screens for.
			if !strings.Contains(as.Name, "-DC-") && !strings.Contains(as.Name, "IDC") {
				continue
			}
			tap := &pairresolver.InterceptorTap{SpoofAddr: wire.MustParseAddr("203.0.113.99")}
			as.Routers[0].AttachTap(tap)
			w.Interceptors = append(w.Interceptors, tap)
			installed++
		}
	}
}

// recruitPlatform builds, discovers, and screens the VP platform
// (Appendix C/E): residential and TTL-resetting providers are excluded,
// then interception-affected VPs are removed via pair resolvers.
func (w *World) recruitPlatform() {
	w.Platform = vantage.Build(w.Net, w.Topo, vantage.Config{
		Seed:                 w.Cfg.Seed + 3,
		VPsPerGlobalProvider: w.Cfg.VPsPerGlobalProvider,
		VPsPerCNProvider:     w.Cfg.VPsPerCNProvider,
	})
	w.Platform.DiscoverAddresses(w.Net, w.EchoEP, func(a wire.Addr) (string, int, bool, bool) {
		info, ok := w.Topo.Geo.Lookup(a)
		if !ok {
			return "", 0, false, false
		}
		return info.Country, info.ASN, info.Hosting, true
	})
	w.Platform.Screen(w.Net, func(vp *vantage.VP, ttl uint8) (uint8, bool) {
		delete(w.lastTTL, vp.Addr)
		vp.SendUDP(w.Net, wire.Endpoint{Addr: w.ttlReportAddr, Port: 9}, ttl, 1, []byte("ttl-screen"))
		w.Net.RunUntilIdle()
		got, ok := w.lastTTL[vp.Addr]
		return got, ok
	})
}

// securityVendorOrigins creates probe origins in a fresh "security vendor"
// hosting AS; a fraction of their addresses is on the blocklist (the
// paper presumes vendor proxies hit blocklists, §5.1).
func (w *World) securityVendorOrigins(name string, count int, blockedFrac float64) []observer.Origin {
	as := w.Topo.NewStubAS(name+" Security Analytics", "US", true)
	return w.asOrigins(as, count, blockedFrac, wire.Addr{})
}

// googleLookupOrigins creates origins that resolve observed names through
// Google Public DNS — making AS15169 the visible origin of the resulting
// unsolicited queries (Figure 6).
func (w *World) googleLookupOrigins(ownerASN, count int, blockedFrac float64) []observer.Origin {
	as := w.Topo.AS(ownerASN)
	if as == nil {
		as = w.Topo.AS(topology.ASNGoogle)
	}
	return w.asOrigins(as, count, blockedFrac, wire.MustParseAddr("8.8.8.8"))
}

// cn114Origins builds the 4-AS origin mix behind 114DNS probes.
func (w *World) cn114Origins() []observer.Origin {
	var out []observer.Origin
	out = append(out, w.asOrigins(w.Topo.ChinanetBackbone(), 1, 0.02, w.Honeypots.Sites[0].AuthAddr)...)
	if prov := w.Topo.ProvincialAS("Jiangsu"); prov != nil {
		out = append(out, w.asOrigins(prov, 1, 0.08, w.Honeypots.Sites[0].AuthAddr)...)
	}
	if zen := w.Topo.AS(topology.ASNZenlayer); zen != nil {
		out = append(out, w.asOrigins(zen, 1, 0.08, w.Honeypots.Sites[0].AuthAddr)...)
	}
	out = append(out, w.googleLookupOrigins(174001, 1, 0)...)
	return out
}

// cnISPOrigins spreads origins over CHINANET networks ("85% of unsolicited
// requests originate from local ISPs", §5.2 case III).
func (w *World) cnISPOrigins(count int, blockedFrac float64) []observer.Origin {
	var out []observer.Origin
	out = append(out, w.asOrigins(w.Topo.ChinanetBackbone(), (count+1)/2, blockedFrac, w.Honeypots.Sites[0].AuthAddr)...)
	if prov := w.Topo.ProvincialAS("Jiangsu"); prov != nil {
		out = append(out, w.asOrigins(prov, count/2, blockedFrac, w.Honeypots.Sites[0].AuthAddr)...)
	}
	return out
}

// siteOrigins builds origins for a destination-side web exhibitor: hosts
// near the site plus Google lookups.
func (w *World) siteOrigins(site *websim.Site, blockedFrac float64) []observer.Origin {
	as := w.Topo.AS(site.ASN)
	origins := w.asOrigins(as, 1, blockedFrac, wire.MustParseAddr("8.8.8.8"))
	return origins
}

// asOrigins allocates count origin hosts in as. resolver zero means the
// origin queries the honeypot authoritative server directly.
func (w *World) asOrigins(as *topology.AS, count int, blockedFrac float64, resolver wire.Addr) []observer.Origin {
	if as == nil {
		return nil
	}
	if resolver.IsZero() {
		resolver = wire.MustParseAddr("8.8.8.8")
	}
	var out []observer.Origin
	for i := 0; i < count; i++ {
		addr := w.Topo.AllocHostAddr(as)
		if w.rng.Float64() < blockedFrac {
			w.Blocklist.ListAddr(addr, intel.ReasonXBL)
		}
		out = append(out, observer.Origin{
			Host:     netsim.NewHost(w.Net, addr),
			Resolver: resolver,
		})
	}
	return out
}
