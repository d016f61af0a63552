// Package topology builds the deterministic world the experiment runs in:
// countries, autonomous systems, routers, address plan, and inter-AS paths.
// It is the stand-in for real Internet routing (see DESIGN.md —
// substitution table).
//
// Path shapes follow the structure the paper's measurements traverse:
// source AS edge/core, provincial and backbone hops inside China (CHINANET
// AS4134 et al.), international gateways on CN border crossings, a tier-1
// transit segment elsewhere, then the destination AS. Every path is
// deterministic for a given seed, so Phase II traceroutes are repeatable.
package topology

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"shadowmeter/internal/geodb"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/wire"
)

// AS is one autonomous system in the simulated world.
type AS struct {
	ASN      int
	Name     string
	Country  string
	Province string // CN provincial ASes only
	Hosting  bool   // datacenter/cloud network (VPN-rentable)

	prefix    wire.Addr // network base
	prefixLen int
	Routers   []*netsim.Router

	hostCounter uint32
	used        map[wire.Addr]bool
}

// String renders "AS4134 CHINANET-BACKBONE".
func (a *AS) String() string { return fmt.Sprintf("AS%d %s", a.ASN, a.Name) }

// Prefix returns the AS's address block.
func (a *AS) Prefix() (wire.Addr, int) { return a.prefix, a.prefixLen }

// edge and core routers: Routers[0] is the customer-facing edge,
// Routers[len-1] the core/peering router.
func (a *AS) edge() *netsim.Router { return a.Routers[0] }
func (a *AS) core() *netsim.Router { return a.Routers[len(a.Routers)-1] }

// Config parameterizes Build.
type Config struct {
	Seed int64
}

// The world's structural constants. Every country in Countries gets
// hostingASesPerCountry datacenter ASes (the VP placement pool) and one
// eyeball AS.
const (
	hostingASesPerCountry = 1
	// routersPerAS is the router count of a stub AS.
	routersPerAS = 2
	// icmpSilentFraction is the probability a router never answers ICMP,
	// modeling incomplete traceroutes.
	icmpSilentFraction = 0.08
)

// Topology is the built world.
type Topology struct {
	Geo *geodb.DB

	mu        sync.Mutex
	ases      map[int]*AS
	byCountry map[string][]*AS

	cnProvincial map[string]*AS // province name -> AS
	cnBackbone   *AS            // AS4134
	cnGateways   []*netsim.Router
	transit      []*AS

	next16    uint32 // next /16 allocation index
	taken16   map[uint32]bool
	nextASN   int
	rng       *rand.Rand
	pathCache map[uint64][]*netsim.Router // keyed by pathKey
	// pathASN memoizes Path's address-to-ASN lookups. It holds only
	// addresses that reached Path, so it is bounded by the world's hosts
	// and routers, and every Geo registration clears it, so a later,
	// more specific prefix still wins. Like pathCache, only the world's
	// event-loop goroutine touches it.
	pathASN map[wire.Addr]int

	// buildOrder and routerBirths record construction order (AS creation
	// and router creation respectively) so a Blueprint snapshot can replay
	// them — including the one rng draw per router — byte-identically.
	buildOrder   []*AS
	routerBirths []routerBirth
	// cnGatewayIdx are the gateway positions within cnBackbone.Routers.
	cnGatewayIdx []int
	// bp is the shared blueprint this world was instantiated from, nil for
	// cold-built topologies. It carries the cross-world structural path
	// cache.
	bp *Blueprint
}

// routerBirth is one addRouter call in construction order.
type routerBirth struct {
	as  *AS
	idx int // index within as.Routers
}

// Build constructs the world.
func Build(cfg Config) *Topology {
	t := &Topology{
		Geo:          geodb.New(),
		ases:         make(map[int]*AS),
		byCountry:    make(map[string][]*AS),
		cnProvincial: make(map[string]*AS),
		taken16:      make(map[uint32]bool),
		nextASN:      200000,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		pathCache:    make(map[uint64][]*netsim.Router),
		pathASN:      make(map[wire.Addr]int),
	}

	// Global transit backbone first so paths can reference it. Transit
	// networks are not VPN-rentable datacenters: hosting=false keeps the
	// vantage platform from placing VPs inside observer ASes (which would
	// put tapped border routers at hop 1 of their own paths).
	for _, tr := range GlobalTransit {
		as := t.newAS(tr.ASN, tr.Name, tr.Country, false, 3)
		t.transit = append(t.transit, as)
	}

	// CHINANET backbone: a larger router fleet, since it shows up as the
	// dominant observer network in Tables 2-3.
	t.cnBackbone = t.newAS(ASNChinanetBackbone, "CHINANET-BACKBONE", "CN", false, 6)
	// Jiangsu backbone is distinct in Table 3.
	t.newAS(ASNJiangsuBackbone, "CHINANET jiangsu backbone", "CN", false, 3)
	// International gateways live on the CHINANET backbone.
	for i := 0; i < 3; i++ {
		gw := t.addRouter(t.cnBackbone, fmt.Sprintf("cn-intl-gw%d", i+1))
		t.cnGateways = append(t.cnGateways, gw)
		t.cnGatewayIdx = append(t.cnGatewayIdx, len(t.cnBackbone.Routers)-1)
	}

	// CN provincial networks.
	for _, p := range CNProvinces {
		as := t.newAS(p.ASN, p.ASName, "CN", false, routersPerAS)
		as.Province = p.Name
		t.cnProvincial[p.Name] = as
	}

	// Per-country hosting (VPN datacenter) and eyeball ASes.
	for _, c := range Countries {
		if c.Code == "CN" {
			// CN hosting ASes for the 13 local VPN providers: one IDC per
			// province, so the platform can cover 30 of 31 provinces
			// (Table 1).
			for i, prov := range CNProvinces {
				as := t.newAS(t.allocASN(), fmt.Sprintf("CN-IDC-%d %s Cloud Datacenter", i+1, prov.Name), "CN", true, routersPerAS)
				as.Province = prov.Name
			}
			continue
		}
		for i := 0; i < hostingASesPerCountry; i++ {
			t.newAS(t.allocASN(), fmt.Sprintf("%s-DC-%d Hosting", c.Code, i+1), c.Code, true, routersPerAS)
		}
		t.newAS(t.allocASN(), fmt.Sprintf("%s Telecom", c.Code), c.Code, false, routersPerAS)
	}

	// Google's network exists from the start (Figure 6 origin analysis).
	t.newAS(ASNGoogle, "Google LLC", "US", true, 3)

	return t
}

// newAS creates an AS with a fresh /16 and nRouters routers.
func (t *Topology) newAS(asn int, name, country string, hosting bool, nRouters int) *AS {
	base := t.alloc16()
	as := &AS{
		ASN: asn, Name: name, Country: country, Hosting: hosting,
		prefix: base, prefixLen: 16,
		used: make(map[wire.Addr]bool),
	}
	t.register(as)
	for i := 0; i < nRouters; i++ {
		t.addRouter(as, fmt.Sprintf("r%d", i+1))
	}
	return as
}

// NewStubAS creates an additional stub AS (web-hosting fleets, probe-origin
// networks) with a fresh /16 and an auto-assigned ASN.
func (t *Topology) NewStubAS(name, country string, hosting bool) *AS {
	t.mu.Lock()
	asn := t.nextASN
	t.nextASN++
	t.mu.Unlock()
	return t.newAS(asn, name, country, hosting, routersPerAS)
}

// AddServiceAS creates (or extends) the AS owning a fixed, well-known
// service address (public resolvers, root servers, Tranco front-ends). The
// /24 containing addr is registered to the AS, and addr is reserved.
func (t *Topology) AddServiceAS(asn int, name, country string, addr wire.Addr, hosting bool) *AS {
	t.mu.Lock()
	defer t.mu.Unlock()
	as, ok := t.ases[asn]
	if !ok {
		as = &AS{
			ASN: asn, Name: name, Country: country, Hosting: hosting,
			prefix: addr.Slash24(), prefixLen: 24,
			used: make(map[wire.Addr]bool),
		}
		t.registerLocked(as)
		for i := 0; i < 2; i++ {
			t.addRouterLocked(as, fmt.Sprintf("r%d", i+1))
		}
	} else {
		// Same operator, additional prefix (e.g. anycast instances).
		err := t.Geo.Register(addr.Slash24(), 24, geodb.Info{
			Country: country, ASN: asn, ASName: name, Hosting: hosting,
		})
		if err != nil {
			panic(fmt.Sprintf("topology: register %s/24: %v", addr, err))
		}
		clear(t.pathASN)
	}
	as.used[addr] = true
	t.taken16[addr.Slash24().Uint32()>>16] = true
	return as
}

func (t *Topology) register(as *AS) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.registerLocked(as)
}

func (t *Topology) registerLocked(as *AS) {
	t.ases[as.ASN] = as
	t.byCountry[as.Country] = append(t.byCountry[as.Country], as)
	t.buildOrder = append(t.buildOrder, as)
	err := t.Geo.Register(as.prefix, as.prefixLen, geodb.Info{
		Country: as.Country, ASN: as.ASN, ASName: as.Name, Hosting: as.Hosting,
	})
	if err != nil {
		// Prefixes are allocated by the topology builder itself; a bad one
		// is a construction bug, not a runtime condition.
		panic(fmt.Sprintf("topology: register %v/%d: %v", as.prefix, as.prefixLen, err))
	}
	clear(t.pathASN)
}

// addRouter appends a router to as, placed in a reserved corner of the
// AS's prefix.
func (t *Topology) addRouter(as *AS, name string) *netsim.Router {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addRouterLocked(as, name)
}

func (t *Topology) addRouterLocked(as *AS, name string) *netsim.Router {
	var addr wire.Addr
	i := len(as.Routers)
	if as.prefixLen == 16 {
		addr = wire.Addr{as.prefix[0], as.prefix[1], 255, byte(1 + i)}
	} else {
		addr = wire.Addr{as.prefix[0], as.prefix[1], as.prefix[2], byte(240 + i)}
	}
	as.used[addr] = true
	r := &netsim.Router{
		Name:       fmt.Sprintf("AS%d-%s", as.ASN, name),
		Addr:       addr,
		ICMPSilent: t.rng.Float64() < icmpSilentFraction,
	}
	as.Routers = append(as.Routers, r)
	t.routerBirths = append(t.routerBirths, routerBirth{as: as, idx: i})
	return r
}

// alloc16 hands out the next free /16 from 11.0.0.0 upward, skipping any
// /16 already containing a service prefix.
func (t *Topology) alloc16() wire.Addr {
	for {
		idx := t.next16
		t.next16++
		hi := byte(11 + idx/256)
		lo := byte(idx % 256)
		key := uint32(hi)<<8 | uint32(lo)
		if t.taken16[key] {
			continue
		}
		t.taken16[key] = true
		return wire.Addr{hi, lo, 0, 0}
	}
}

func (t *Topology) allocASN() int {
	n := t.nextASN
	t.nextASN++
	return n
}

// AllocHostAddr reserves and returns a fresh host address inside the AS.
func (t *Topology) AllocHostAddr(as *AS) wire.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		c := as.hostCounter
		as.hostCounter++
		var addr wire.Addr
		if as.prefixLen == 16 {
			third := byte(c / 250)
			fourth := byte(1 + c%250)
			if third >= 255 {
				panic(fmt.Sprintf("topology: AS%d host space exhausted", as.ASN))
			}
			addr = wire.Addr{as.prefix[0], as.prefix[1], third, fourth}
		} else {
			fourth := 1 + c%239
			if c >= 239 {
				panic(fmt.Sprintf("topology: AS%d /24 host space exhausted", as.ASN))
			}
			addr = wire.Addr{as.prefix[0], as.prefix[1], as.prefix[2], byte(fourth)}
		}
		if as.used[addr] {
			continue
		}
		as.used[addr] = true
		return addr
	}
}

// AS returns the AS with the given number, or nil.
func (t *Topology) AS(asn int) *AS {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ases[asn]
}

// ASOf maps an address to its AS via the geo database.
func (t *Topology) ASOf(addr wire.Addr) *AS {
	info, ok := t.Geo.Lookup(addr)
	if !ok {
		return nil
	}
	return t.AS(info.ASN)
}

// HostingASes returns the datacenter ASes in a country, sorted by ASN.
func (t *Topology) HostingASes(country string) []*AS {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*AS
	for _, as := range t.byCountry[country] {
		if as.Hosting {
			out = append(out, as)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// CountryASes returns every AS in a country, sorted by ASN.
func (t *Topology) CountryASes(country string) []*AS {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]*AS(nil), t.byCountry[country]...)
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// Countries lists country codes present in the world.
func (t *Topology) Countries() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.byCountry))
	for c := range t.byCountry {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// NumASes reports the number of ASes in the world.
func (t *Topology) NumASes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ases)
}

// ChinanetBackbone returns AS4134.
func (t *Topology) ChinanetBackbone() *AS { return t.cnBackbone }

// ProvincialAS returns the CN provincial AS for a province name, or nil.
func (t *Topology) ProvincialAS(province string) *AS { return t.cnProvincial[province] }

// TransitASes returns the global transit pool.
func (t *Topology) TransitASes() []*AS { return t.transit }

// PathFunc adapts the topology for netsim.
func (t *Topology) PathFunc() netsim.PathFunc {
	return func(src, dst wire.Addr) []*netsim.Router {
		return t.Path(src, dst)
	}
}

// Path computes the router sequence between two addresses. Paths are
// symmetric in structure but computed per direction; results are cached per
// AS pair.
//
// The fast path takes no lock: the per-world cache maps (address to ASN,
// AS pair to path) are read and written only by the world's own event-loop
// goroutine (the same single-goroutine contract the rest of netsim state
// lives under). Worlds instantiated from a shared Blueprint additionally
// consult its cross-world structural cache on a miss, so a path computed
// by one trial is reused — as router indices, resolved against this
// world's own routers — by every other trial.
func (t *Topology) Path(src, dst wire.Addr) []*netsim.Router {
	srcASN, ok := t.asnOf(src)
	if !ok {
		return nil
	}
	dstASN, ok := t.asnOf(dst)
	if !ok {
		return nil
	}
	if p, ok := t.pathCache[pathKey(srcASN, dstASN)]; ok {
		return p
	}
	return t.pathSlow([2]int{srcASN, dstASN})
}

// pathKey packs an AS pair into one word, which the map hashes faster than
// a [2]int. ASNs are 32-bit numbers (RFC 6793).
func pathKey(src, dst int) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// asnOf returns the ASN Geo registers addr under, memoized in pathASN.
// Unregistered addresses are not memoized: Path drops their packets.
func (t *Topology) asnOf(addr wire.Addr) (int, bool) {
	if asn, ok := t.pathASN[addr]; ok {
		return asn, true
	}
	info, ok := t.Geo.Lookup(addr)
	if ok {
		t.pathASN[addr] = info.ASN
	}
	return info.ASN, ok
}

// pathSlow fills a per-world cache miss, sharing structural work through
// the blueprint when both endpoints are blueprint-native ASes.
func (t *Topology) pathSlow(key [2]int) []*netsim.Router {
	t.mu.Lock()
	src, dst := t.ases[key[0]], t.ases[key[1]]
	if src == nil || dst == nil {
		t.mu.Unlock()
		return nil
	}
	var p []*netsim.Router
	if t.bp != nil && t.bp.native[key[0]] && t.bp.native[key[1]] {
		if hops, ok := t.bp.loadPath(key); ok {
			p = t.resolveHops(hops)
		} else {
			p = t.buildPath(src, dst)
			t.bp.storePath(key, t.hopsFor(p))
		}
	} else {
		p = t.buildPath(src, dst)
	}
	t.mu.Unlock()
	t.pathCache[pathKey(key[0], key[1])] = p
	return p
}

// resolveHops maps structural hop references onto this world's routers.
func (t *Topology) resolveHops(hops []pathHop) []*netsim.Router {
	out := make([]*netsim.Router, len(hops))
	for i, h := range hops {
		out[i] = t.ases[h.asn].Routers[h.idx]
	}
	return out
}

// hopsFor converts a resolved path back into structural references. Every
// hop belongs to a blueprint-native AS when called (pathSlow guards), and
// routers sit at stable indices within their AS fleet.
func (t *Topology) hopsFor(p []*netsim.Router) []pathHop {
	hops := make([]pathHop, 0, len(p))
	for _, r := range p {
		info, ok := t.Geo.Lookup(r.Addr)
		if !ok {
			return nil
		}
		as := t.ases[info.ASN]
		idx := -1
		for j, rr := range as.Routers {
			if rr == r {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil
		}
		hops = append(hops, pathHop{asn: as.ASN, idx: idx})
	}
	return hops
}

// buildPath assembles the hop sequence. Deterministic: all "choices" hash
// the AS pair.
func (t *Topology) buildPath(src, dst *AS) []*netsim.Router {
	if src == dst {
		return []*netsim.Router{src.edge()}
	}
	h := pairHash(src.ASN, dst.ASN)
	var hops []*netsim.Router
	hops = append(hops, src.edge())
	if len(src.Routers) > 1 {
		hops = append(hops, src.core())
	}

	srcCN, dstCN := src.Country == "CN", dst.Country == "CN"
	switch {
	case srcCN && dstCN:
		// Provincial uplink -> national backbone -> provincial downlink.
		if p := t.provincialUplink(src); p != nil && p != src {
			hops = append(hops, p.core())
		}
		hops = append(hops, t.backboneRouter(h))
		if p := t.provincialUplink(dst); p != nil && p != dst {
			hops = append(hops, p.core())
		}
	case srcCN && !dstCN:
		if p := t.provincialUplink(src); p != nil && p != src {
			hops = append(hops, p.core())
		}
		hops = append(hops, t.backboneRouter(h))
		hops = append(hops, t.gateway(h))
		hops = append(hops, t.transitSegment(h)...)
	case !srcCN && dstCN:
		hops = append(hops, t.transitSegment(h)...)
		hops = append(hops, t.gateway(h>>3))
		hops = append(hops, t.backboneRouter(h>>5))
		if p := t.provincialUplink(dst); p != nil && p != dst {
			hops = append(hops, p.core())
		}
	default:
		hops = append(hops, t.transitSegment(h)...)
	}

	if len(dst.Routers) > 1 {
		hops = append(hops, dst.core())
	}
	hops = append(hops, dst.edge())
	return dedupeRouters(hops)
}

// provincialUplink finds the provincial ISP an AS homes to.
func (t *Topology) provincialUplink(as *AS) *AS {
	if as.Province != "" {
		if p, ok := t.cnProvincial[as.Province]; ok {
			return p
		}
	}
	// Non-provincial CN ASes (backbone etc.) have no provincial uplink.
	if as.ASN == ASNChinanetBackbone || as.ASN == ASNJiangsuBackbone {
		return nil
	}
	// Deterministic home province for service ASes without one.
	provs := CNProvinces
	return t.cnProvincial[provs[as.ASN%len(provs)].Name]
}

func (t *Topology) backboneRouter(h uint64) *netsim.Router {
	// Skip the gateway routers at the tail of the backbone's fleet.
	n := len(t.cnBackbone.Routers) - len(t.cnGateways)
	return t.cnBackbone.Routers[mod(h, n)]
}

func (t *Topology) gateway(h uint64) *netsim.Router {
	return t.cnGateways[mod(h, len(t.cnGateways))]
}

// transitSegment picks 1-2 tier-1 hops for the global middle of a path.
func (t *Topology) transitSegment(h uint64) []*netsim.Router {
	k := 1 + mod(h>>8, 2)
	var out []*netsim.Router
	for i := 0; i < k; i++ {
		as := t.transit[mod(h>>(4*uint(i)), len(t.transit))]
		out = append(out, as.Routers[mod(h>>(9+uint(i)), len(as.Routers))])
	}
	return out
}

// mod reduces an unsigned hash into [0, n) without sign traps.
func mod(h uint64, n int) int { return int(h % uint64(n)) }

func dedupeRouters(hops []*netsim.Router) []*netsim.Router {
	out := hops[:0]
	seen := make(map[*netsim.Router]bool, len(hops))
	for _, r := range hops {
		if seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	return out
}

func pairHash(a, b int) uint64 {
	h := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}
