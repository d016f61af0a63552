package topology

import (
	"math"
	"reflect"
	"testing"

	"shadowmeter/internal/netsim"
	"shadowmeter/internal/wire"
)

func build(t *testing.T) *Topology {
	t.Helper()
	return Build(Config{Seed: 42})
}

func TestWorldShape(t *testing.T) {
	topo := build(t)
	countries := topo.Countries()
	if len(countries) != 82 {
		t.Errorf("countries = %d, want 82", len(countries))
	}
	if topo.AS(ASNChinanetBackbone) == nil {
		t.Fatal("missing CHINANET backbone")
	}
	if topo.AS(ASNGoogle) == nil {
		t.Fatal("missing Google AS")
	}
	if got := topo.ProvincialAS("Jiangsu"); got == nil || got.ASN != 137697 {
		t.Errorf("Jiangsu provincial = %v", got)
	}
	if n := topo.NumASes(); n < 150 {
		t.Errorf("NumASes = %d, want >= 150", n)
	}
}

func TestDeterminism(t *testing.T) {
	a := Build(Config{Seed: 7})
	b := Build(Config{Seed: 7})
	asA, asB := a.HostingASes("DE"), b.HostingASes("DE")
	if len(asA) == 0 || len(asA) != len(asB) {
		t.Fatalf("hosting ASes: %d vs %d", len(asA), len(asB))
	}
	for i := range asA {
		if asA[i].ASN != asB[i].ASN || asA[i].prefix != asB[i].prefix {
			t.Errorf("AS %d differs across builds", i)
		}
	}
	// Paths must be identical too.
	srcA := a.AllocHostAddr(asA[0])
	srcB := b.AllocHostAddr(asB[0])
	if srcA != srcB {
		t.Fatalf("allocation differs: %v vs %v", srcA, srcB)
	}
	dstA := a.AllocHostAddr(a.AS(ASNGoogle))
	dstB := b.AllocHostAddr(b.AS(ASNGoogle))
	pA, pB := a.Path(srcA, dstA), b.Path(srcB, dstB)
	if len(pA) != len(pB) {
		t.Fatalf("path lengths differ: %d vs %d", len(pA), len(pB))
	}
	for i := range pA {
		if pA[i].Addr != pB[i].Addr {
			t.Errorf("hop %d differs: %v vs %v", i, pA[i].Addr, pB[i].Addr)
		}
	}
}

func TestAllocHostAddrUniqueAndInPrefix(t *testing.T) {
	topo := build(t)
	as := topo.HostingASes("US")[0]
	seen := make(map[wire.Addr]bool)
	for i := 0; i < 1000; i++ {
		a := topo.AllocHostAddr(as)
		if seen[a] {
			t.Fatalf("duplicate address %v", a)
		}
		seen[a] = true
		if a[0] != as.prefix[0] || a[1] != as.prefix[1] {
			t.Fatalf("address %v outside prefix %v/16", a, as.prefix)
		}
		if info, ok := topo.Geo.Lookup(a); !ok || info.ASN != as.ASN {
			t.Fatalf("geo lookup of %v = %+v", a, info)
		}
	}
}

func TestServiceAS(t *testing.T) {
	topo := build(t)
	yandex := wire.MustParseAddr("77.88.8.8")
	as := topo.AddServiceAS(13238, "Yandex", "RU", yandex, true)
	if as == nil || len(as.Routers) == 0 {
		t.Fatal("service AS not created")
	}
	info, ok := topo.Geo.Lookup(yandex)
	if !ok || info.ASN != 13238 || info.Country != "RU" {
		t.Errorf("lookup = %+v, %v", info, ok)
	}
	// Second registration of another prefix for the same operator (anycast).
	us := wire.MustParseAddr("77.88.110.1")
	as2 := topo.AddServiceAS(13238, "Yandex", "RU", us, true)
	if as2 != as {
		t.Error("same ASN should return the same AS")
	}
	// Host allocation must not hand out the service address.
	for i := 0; i < 100; i++ {
		if topo.AllocHostAddr(as) == yandex {
			t.Fatal("service address allocated as host")
		}
	}
}

func TestPathProperties(t *testing.T) {
	topo := build(t)
	de := topo.HostingASes("DE")[0]
	us := topo.HostingASes("US")[0]
	src := topo.AllocHostAddr(de)
	dst := topo.AllocHostAddr(us)
	p := topo.Path(src, dst)
	if len(p) < 4 || len(p) > 16 {
		t.Fatalf("path length = %d", len(p))
	}
	// First hop in source AS, last in destination AS.
	if got := topo.ASOf(p[0].Addr); got != de {
		t.Errorf("first hop in %v", got)
	}
	if got := topo.ASOf(p[len(p)-1].Addr); got != us {
		t.Errorf("last hop in %v", got)
	}
	// No repeated routers.
	seen := make(map[*netsim.Router]bool)
	for _, r := range p {
		if seen[r] {
			t.Errorf("router %s repeated", r.Name)
		}
		seen[r] = true
	}
	// Cached result is identical.
	p2 := topo.Path(src, dst)
	if len(p2) != len(p) {
		t.Error("cache returned different path")
	}
}

func TestCNPathsTraverseBackbone(t *testing.T) {
	topo := build(t)
	cnAS := topo.HostingASes("CN")
	if len(cnAS) == 0 {
		t.Fatal("no CN hosting ASes")
	}
	src := topo.AllocHostAddr(cnAS[0])
	usAS := topo.HostingASes("US")[0]
	dst := topo.AllocHostAddr(usAS)
	p := topo.Path(src, dst)
	foundBackbone := false
	for _, r := range p {
		if as := topo.ASOf(r.Addr); as != nil && as.ASN == ASNChinanetBackbone {
			foundBackbone = true
		}
	}
	if !foundBackbone {
		t.Error("CN->US path does not traverse CHINANET backbone")
	}
}

func TestForeignToCNTraversesGateway(t *testing.T) {
	topo := build(t)
	src := topo.AllocHostAddr(topo.HostingASes("DE")[0])
	dst114 := wire.MustParseAddr("114.114.114.114")
	topo.AddServiceAS(174000, "114DNS", "CN", dst114, true)
	p := topo.Path(src, dst114)
	if p == nil {
		t.Fatal("no path to 114DNS")
	}
	backbone := false
	for _, r := range p {
		if as := topo.ASOf(r.Addr); as != nil && as.ASN == ASNChinanetBackbone {
			backbone = true
		}
	}
	if !backbone {
		t.Error("DE->CN path misses the backbone")
	}
}

func TestIntraASPath(t *testing.T) {
	topo := build(t)
	as := topo.HostingASes("FR")[0]
	a := topo.AllocHostAddr(as)
	b := topo.AllocHostAddr(as)
	p := topo.Path(a, b)
	if len(p) != 1 {
		t.Errorf("intra-AS path length = %d, want 1", len(p))
	}
}

func TestPathUnknownAddr(t *testing.T) {
	topo := build(t)
	if p := topo.Path(wire.MustParseAddr("250.1.2.3"), wire.MustParseAddr("250.4.5.6")); p != nil {
		t.Error("unknown addresses should have no path")
	}
}

// TestSomeRoutersICMPSilent: about icmpSilentFraction of the routers
// never answer ICMP, so some traceroutes stay incomplete.
func TestSomeRoutersICMPSilent(t *testing.T) {
	topo := Build(Config{Seed: 3})
	silent, total := 0, 0
	for _, c := range topo.Countries() {
		for _, as := range topo.CountryASes(c) {
			for _, r := range as.Routers {
				total++
				if r.ICMPSilent {
					silent++
				}
			}
		}
	}
	if got := float64(silent) / float64(total); math.Abs(got-icmpSilentFraction) > 0.03 {
		t.Errorf("silent = %d/%d = %.3f, want about %.2f", silent, total, got, icmpSilentFraction)
	}
}

// TestPathASNMemoInvalidation memoizes two destinations' ASNs through
// Path, then registers a more specific /24 for each under a new ASN: the
// first through AddServiceAS's new-AS branch, the second through its
// extra-prefix branch. Path must follow each registration, exactly as in a
// world that registered both up front, for cold-built and blueprint worlds
// alike.
func TestPathASNMemoInvalidation(t *testing.T) {
	const serviceASN = 394999
	bp := NewBlueprint(Config{})
	for _, world := range []struct {
		name string
		new  func() *Topology
	}{
		{"cold", func() *Topology { return Build(Config{Seed: 42}) }},
		{"blueprint", func() *Topology { return bp.Instantiate(42) }},
	} {
		t.Run(world.name, func(t *testing.T) {
			hosts := func(topo *Topology) []wire.Addr {
				var out []wire.Addr
				for _, c := range []string{"DE", "US", "GB"} {
					out = append(out, topo.AllocHostAddr(topo.HostingASes(c)[0]))
				}
				return out
			}
			lastASN := func(topo *Topology, p []*netsim.Router) int {
				return topo.ASOf(p[len(p)-1].Addr).ASN
			}
			late := world.new()
			addrs := hosts(late)
			src, dsts := addrs[0], addrs[1:]
			for _, dst := range dsts {
				if got := lastASN(late, late.Path(src, dst)); got == serviceASN {
					t.Fatalf("path to %v already ends in AS%d", dst, got)
				}
				late.AddServiceAS(serviceASN, "Anycast Service", "US", dst, true)
				if got := lastASN(late, late.Path(src, dst)); got != serviceASN {
					t.Fatalf("after registering %v/24, path ends in AS%d, want AS%d", dst.Slash24(), got, serviceASN)
				}
			}

			early := world.new()
			if got := hosts(early); !reflect.DeepEqual(got, addrs) {
				t.Fatalf("worlds allocated %v and %v", addrs, got)
			}
			for _, dst := range dsts {
				early.AddServiceAS(serviceASN, "Anycast Service", "US", dst, true)
			}
			for _, dst := range dsts {
				got, want := late.Path(src, dst), early.Path(src, dst)
				if len(got) != len(want) {
					t.Fatalf("path to %v has %d hops, up-front registration gives %d", dst, len(got), len(want))
				}
				for i := range got {
					if got[i].Addr != want[i].Addr || got[i].Name != want[i].Name {
						t.Errorf("path to %v hop %d: %s %v, up-front registration gives %s %v", dst, i, got[i].Name, got[i].Addr, want[i].Name, want[i].Addr)
					}
				}
			}
		})
	}
}

// TestPathWarmAllocsZero checks that a memoized Path allocates nothing.
func TestPathWarmAllocsZero(t *testing.T) {
	topo := Build(Config{Seed: 42})
	src := topo.AllocHostAddr(topo.HostingASes("DE")[0])
	dst := topo.AllocHostAddr(topo.HostingASes("US")[0])
	topo.Path(src, dst)
	if allocs := testing.AllocsPerRun(100, func() { topo.Path(src, dst) }); allocs != 0 {
		t.Errorf("warm Path allocates %v times per call, want 0", allocs)
	}
}

func BenchmarkPathCached(b *testing.B) {
	topo := Build(Config{Seed: 42})
	src := topo.AllocHostAddr(topo.HostingASes("DE")[0])
	dst := topo.AllocHostAddr(topo.HostingASes("US")[0])
	topo.Path(src, dst)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo.Path(src, dst)
	}
}

func BenchmarkBuildWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Build(Config{Seed: int64(i)})
	}
}

func TestPathInvariantsProperty(t *testing.T) {
	topo := Build(Config{Seed: 99})
	countries := []string{"US", "DE", "GB", "FR", "JP", "CN", "BR", "SG"}
	// Collect one host per country.
	hosts := make(map[string]wire.Addr)
	for _, c := range countries {
		if as := topo.HostingASes(c); len(as) > 0 {
			hosts[c] = topo.AllocHostAddr(as[0])
		}
	}
	for _, src := range countries {
		for _, dst := range countries {
			a, okA := hosts[src]
			b, okB := hosts[dst]
			if !okA || !okB || a == b {
				continue
			}
			p := topo.Path(a, b)
			if p == nil {
				t.Fatalf("no path %s->%s", src, dst)
			}
			// Invariant: bounded length.
			if len(p) < 1 || len(p) > 16 {
				t.Errorf("%s->%s length %d", src, dst, len(p))
			}
			// Invariant: loop-free.
			seen := make(map[*netsim.Router]bool)
			for _, r := range p {
				if seen[r] {
					t.Errorf("%s->%s revisits %s", src, dst, r.Name)
				}
				seen[r] = true
			}
			// Invariant: every hop belongs to a registered AS.
			for _, r := range p {
				if topo.ASOf(r.Addr) == nil {
					t.Errorf("%s->%s hop %v in no AS", src, dst, r.Addr)
				}
			}
			// Invariant: stable across repeated queries.
			p2 := topo.Path(a, b)
			if len(p2) != len(p) {
				t.Errorf("%s->%s path unstable", src, dst)
			}
			// Invariant: cross-border CN paths traverse the backbone.
			crossCN := (src == "CN") != (dst == "CN")
			if crossCN {
				found := false
				for _, r := range p {
					if as := topo.ASOf(r.Addr); as != nil && as.ASN == ASNChinanetBackbone {
						found = true
					}
				}
				if !found {
					t.Errorf("%s->%s misses the CN backbone", src, dst)
				}
			}
		}
	}
}
