// Package websim builds the HTTP/TLS destination fleet standing in for the
// Tranco top-1K front-ends the paper targets (2,325 IPs across 234 ASes).
// Decoys complete TCP handshakes with these servers and receive authentic
// responses; traffic shadowing never tampers with the primary exchange.
package websim

import (
	"fmt"
	"math/rand"
	"sort"

	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/tlswire"
	"shadowmeter/internal/topology"
	"shadowmeter/internal/wire"
)

// Site is one web front-end IP.
type Site struct {
	Rank    int    // Tranco-style popularity rank (1 = most popular)
	Domain  string // the site's own domain (not the decoy domain)
	Addr    wire.Addr
	Country string
	ASN     int

	// OnSNI, when set, receives the server name of every ClientHello this
	// site terminates — destination-side TLS shadowing (a majority of TLS
	// observers sit at the destination per Table 2). Assign after Build;
	// the deployed handler reads it live.
	OnSNI func(n *netsim.Network, serverName string, client wire.Addr)
	// OnHost is the HTTP analogue for the small share of HTTP shadowing at
	// the destination.
	OnHost func(n *netsim.Network, host string, client wire.Addr)
}

// Fleet is the deployed destination set.
type Fleet struct {
	Sites []*Site
	byAS  map[int][]*Site
}

// countryWeights steers where front-end IPs live. The mix keeps CN, US and
// CA prominent — the destination countries Figure 3 singles out — plus AD,
// which the paper calls out explicitly.
var countryWeights = []struct {
	country string
	weight  int
}{
	{"US", 30}, {"CN", 15}, {"DE", 8}, {"GB", 6}, {"NL", 5}, {"FR", 5},
	{"JP", 5}, {"CA", 5}, {"SG", 4}, {"IE", 3}, {"AU", 3}, {"KR", 3},
	{"BR", 2}, {"IN", 2}, {"RU", 2}, {"AD", 1}, {"HK", 1},
}

// Config parameterizes fleet construction.
type Config struct {
	Seed int64
	// NumSites is the number of front-end IPs (paper: 2,325). 0 means 200.
	NumSites int
	// NumASes bounds the hosting ASes created (paper: 234). 0 means
	// NumSites/10, minimum 10.
	NumASes int
}

// Build creates NumSites web servers in NumASes hosting ASes and registers
// them on the network.
func Build(n *netsim.Network, topo *topology.Topology, cfg Config) *Fleet {
	numSites := cfg.NumSites
	if numSites <= 0 {
		numSites = 200
	}
	numASes := cfg.NumASes
	if numASes <= 0 {
		numASes = numSites / 10
		if numASes < 10 {
			numASes = 10
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Create hosting ASes with the country mix above.
	var totalW int
	for _, w := range countryWeights {
		totalW += w.weight
	}
	ases := make([]*topology.AS, 0, numASes)
	for i := 0; i < numASes; i++ {
		pick := rng.Intn(totalW)
		country := countryWeights[len(countryWeights)-1].country
		for _, w := range countryWeights {
			pick -= w.weight
			if pick < 0 {
				country = w.country
				break
			}
		}
		ases = append(ases, topo.NewStubAS(fmt.Sprintf("%s-WEB-%d CDN/Hosting", country, i+1), country, true))
	}

	f := &Fleet{byAS: make(map[int][]*Site)}
	srv := &server{badRequest: httpwire.NewResponse(400, "bad request").Encode()}
	for i := 0; i < numSites; i++ {
		as := ases[rng.Intn(len(ases))]
		addr := topo.AllocHostAddr(as)
		site := &Site{
			Rank:    i + 1,
			Domain:  fmt.Sprintf("site-%04d.example", i+1),
			Addr:    addr,
			Country: as.Country,
			ASN:     as.ASN,
		}
		f.Sites = append(f.Sites, site)
		f.byAS[as.ASN] = append(f.byAS[as.ASN], site)
		deploySite(n, srv, site)
	}
	return f
}

// server is what every front-end of a fleet shares: HTTP and TLS parse
// scratch and the static 400 reply.
type server struct {
	// req is parse scratch: handlers run on the world's single event-loop
	// goroutine and finish with a request before the next arrives. The
	// Host string handed to OnHost is a fresh copy, so it may be kept.
	//
	//shadowlint:eventloop
	req httpwire.Request
	// hello is ClientHello parse scratch under the same contract: the
	// name handed to OnSNI is a fresh string.
	//
	//shadowlint:eventloop
	hello tlswire.ClientHello

	badRequest []byte
}

// deploySite registers the HTTP and TLS services of one front-end. Its
// 200 response and ServerHello never vary, so both are encoded once here;
// the host copies a reply into its packet, so every request shares them.
func deploySite(n *netsim.Network, srv *server, site *Site) {
	host := netsim.NewHost(n, site.Addr)
	body := fmt.Sprintf("<html><body>%s (rank %d)</body></html>", site.Domain, site.Rank)
	ok := httpwire.NewResponse(200, body).Encode()
	sh := tlswire.ServerHello{Version: tlswire.VersionTLS12, CipherSuite: 0x1302}
	copy(sh.Random[:], site.Domain)
	hello := sh.Encode()
	host.ServeTCP(80, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		req := &srv.req
		if err := httpwire.ParseRequestInto(req, payload); err != nil {
			return srv.badRequest
		}
		// Top sites answer regardless of Host header (the decoy's Host
		// mismatches the front-end on purpose, see Section 3 footnote 1).
		if site.OnHost != nil {
			site.OnHost(n, req.Host(), from.Addr)
		}
		return ok
	})
	host.ServeTCP(443, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		ch := &srv.hello
		if err := tlswire.ParseClientHelloInto(ch, payload); err != nil {
			return nil
		}
		if site.OnSNI != nil {
			// The terminating server sees the name whether it arrived as
			// clear-text SNI or inside ECH — encryption only blinds the
			// wire, not the destination (paper, Discussion).
			name := ch.ServerName
			if name == "" {
				name, _ = ch.ECHServerName()
			}
			if name != "" {
				site.OnSNI(n, name, from.Addr)
			}
		}
		return hello
	})
}

// ASNs lists the distinct hosting ASes actually used, sorted.
func (f *Fleet) ASNs() []int {
	out := make([]int, 0, len(f.byAS))
	for asn := range f.byAS {
		out = append(out, asn)
	}
	sort.Ints(out)
	return out
}
