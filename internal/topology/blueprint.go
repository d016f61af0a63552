package topology

import (
	"math/rand"
	"sync"

	"shadowmeter/internal/geodb"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/wire"
)

// Blueprint is the immutable, concurrency-safe skeleton of a built
// topology: AS records, router names and addresses, the frozen geo trie,
// and the allocator state — everything topology.Build produces that does
// not depend on the seed. Building one per campaign and calling
// Instantiate per trial skips the fmt.Sprintf naming, map churn, and
// prefix registration that otherwise re-run N times, while staying
// byte-identical to a cold Build: the only seed-dependent outputs of Build
// are the per-router ICMPSilent draws, which Instantiate replays from a
// trial-seeded rng in the recorded construction order.
//
// All fields except paths are written once in NewBlueprint and only read
// afterwards; paths is a sync.Map, so the whole structure is safe to share
// across any number of concurrently-instantiated worlds. The crossworld
// analyzer enforces the write-once contract: field writes outside the
// //shadowlint:sharedinit constructor are findings.
//
//shadowlint:shared
type Blueprint struct {
	geo   *geodb.DB // frozen; worlds layer private overlays on top
	specs []asSpec  // AS construction order

	births []specBirth // router construction order (rng draw order)

	backboneIdx   int
	transitIdx    []int
	provincialIdx map[string]int // province name -> specs index
	gatewayIdx    []int          // router indices within the backbone spec

	native map[int]bool // ASNs present at Build time

	next16  uint32
	taken16 map[uint32]bool
	nextASN int

	// paths caches structural hop sequences per native AS pair, shared by
	// every world instantiated from this blueprint. Values are immutable
	// once stored; sync.Map keeps reads lock-free on the Path miss path.
	paths sync.Map // [2]int -> []pathHop
}

// pathHop is one structural hop: a router identified by AS number and its
// stable index in that AS's router fleet.
type pathHop struct {
	asn, idx int
}

// asSpec snapshots one AS in construction order.
type asSpec struct {
	asn       int
	name      string
	country   string
	province  string
	hosting   bool
	prefix    wire.Addr
	prefixLen int
	routers   []routerSpec
}

// routerSpec snapshots one router (ICMPSilent is seed-dependent and drawn
// at Instantiate time instead).
type routerSpec struct {
	name string
	addr wire.Addr
}

// specBirth is one addRouter call in construction order, by spec index.
type specBirth struct {
	spec, idx int
}

// NewBlueprint builds the campaign skeleton once. cfg.Seed is irrelevant to
// the snapshot: the seed only affects ICMPSilent draws, replayed per
// trial.
//
//shadowlint:sharedinit
func NewBlueprint(cfg Config) *Blueprint {
	t := Build(cfg)
	bp := &Blueprint{
		geo:           t.Geo,
		provincialIdx: make(map[string]int),
		native:        make(map[int]bool, len(t.buildOrder)),
		next16:        t.next16,
		taken16:       make(map[uint32]bool, len(t.taken16)),
		nextASN:       t.nextASN,
		backboneIdx:   -1,
	}
	bp.geo.Freeze()
	for k := range t.taken16 {
		bp.taken16[k] = true
	}

	specIdx := make(map[*AS]int, len(t.buildOrder))
	for i, as := range t.buildOrder {
		spec := asSpec{
			asn: as.ASN, name: as.Name, country: as.Country,
			province: as.Province, hosting: as.Hosting,
			prefix: as.prefix, prefixLen: as.prefixLen,
			routers: make([]routerSpec, len(as.Routers)),
		}
		for j, r := range as.Routers {
			spec.routers[j] = routerSpec{name: r.Name, addr: r.Addr}
		}
		bp.specs = append(bp.specs, spec)
		bp.native[as.ASN] = true
		specIdx[as] = i
		if as == t.cnBackbone {
			bp.backboneIdx = i
		}
	}
	for _, as := range t.transit {
		bp.transitIdx = append(bp.transitIdx, specIdx[as])
	}
	for prov, as := range t.cnProvincial {
		bp.provincialIdx[prov] = specIdx[as]
	}
	bp.gatewayIdx = append(bp.gatewayIdx, t.cnGatewayIdx...)
	for _, b := range t.routerBirths {
		bp.births = append(bp.births, specBirth{spec: specIdx[b.as], idx: b.idx})
	}
	return bp
}

// Instantiate materializes a world-private Topology from the blueprint.
// Only mutable state is allocated fresh — AS structs (their address pools
// and Province fields are written post-build), router structs (tap lists
// attach per world), the geo overlay, the allocators, and an rng advanced
// exactly as a cold Build(Config{Seed: seed}) would leave it. The result is
// indistinguishable from a cold Build with the same seed.
//
//shadowlint:trialpath
func (bp *Blueprint) Instantiate(seed int64) *Topology {
	t := &Topology{
		Geo:          bp.geo.Overlay(),
		ases:         make(map[int]*AS, len(bp.specs)*2),
		byCountry:    make(map[string][]*AS, 96),
		cnProvincial: make(map[string]*AS, len(bp.provincialIdx)),
		taken16:      make(map[uint32]bool, len(bp.taken16)*2),
		next16:       bp.next16,
		nextASN:      bp.nextASN,
		rng:          rand.New(rand.NewSource(seed)),
		pathCache:    make(map[uint64][]*netsim.Router),
		pathASN:      make(map[wire.Addr]int),
		bp:           bp,
	}
	for k := range bp.taken16 {
		t.taken16[k] = true
	}
	ases := make([]*AS, len(bp.specs))
	for i := range bp.specs {
		spec := &bp.specs[i]
		as := &AS{
			ASN: spec.asn, Name: spec.name, Country: spec.country,
			Province: spec.province, Hosting: spec.hosting,
			prefix: spec.prefix, prefixLen: spec.prefixLen,
			Routers: make([]*netsim.Router, len(spec.routers)),
			used:    make(map[wire.Addr]bool, len(spec.routers)+1),
		}
		for j := range spec.routers {
			rs := &spec.routers[j]
			as.Routers[j] = &netsim.Router{Name: rs.name, Addr: rs.addr}
			as.used[rs.addr] = true
		}
		ases[i] = as
		t.ases[as.ASN] = as
		t.byCountry[as.Country] = append(t.byCountry[as.Country], as)
	}
	// Replay the seed-dependent draws in the recorded construction order —
	// one Float64 per router, interleaved across ASes exactly as Build
	// interleaves them — so both the flags and the rng's final state match
	// a cold build.
	for _, b := range bp.births {
		ases[b.spec].Routers[b.idx].ICMPSilent = t.rng.Float64() < icmpSilentFraction
	}
	if bp.backboneIdx >= 0 {
		t.cnBackbone = ases[bp.backboneIdx]
		for _, ri := range bp.gatewayIdx {
			t.cnGateways = append(t.cnGateways, t.cnBackbone.Routers[ri])
		}
	}
	for _, i := range bp.transitIdx {
		t.transit = append(t.transit, ases[i])
	}
	for prov, i := range bp.provincialIdx {
		t.cnProvincial[prov] = ases[i]
	}
	return t
}

// InstantiateOrBuild instantiates from the blueprint when one is present,
// and falls back to a cold Build otherwise — the two produce byte-identical
// worlds for the same seed, so callers can treat the blueprint as a pure
// accelerator. Safe on a nil receiver.
//
//shadowlint:trialpath
func (bp *Blueprint) InstantiateOrBuild(seed int64) *Topology {
	if bp == nil {
		return Build(Config{Seed: seed})
	}
	return bp.Instantiate(seed)
}

// loadPath fetches the shared structural path for a native AS pair.
func (bp *Blueprint) loadPath(key [2]int) ([]pathHop, bool) {
	v, ok := bp.paths.Load(key)
	if !ok {
		return nil, false
	}
	return v.([]pathHop), true
}

// storePath publishes a structural path computed by one world. First
// writer wins; every world computes identical hops for a native pair, so
// the race is benign.
func (bp *Blueprint) storePath(key [2]int, hops []pathHop) {
	if len(hops) == 0 {
		return
	}
	bp.paths.LoadOrStore(key, hops)
}
