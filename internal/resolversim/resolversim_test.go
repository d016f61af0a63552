package resolversim

import (
	"fmt"
	"testing"
	"time"

	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/geodb"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/wire"
)

var t0 = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

// testWorld builds a flat network (no routers) with a geo DB.
func testWorld() (*netsim.Network, *geodb.DB) {
	n := netsim.New(netsim.Config{Start: t0})
	geo := geodb.New()
	return n, geo
}

func TestRegistryLongestMatch(t *testing.T) {
	r := NewRegistry()
	a1 := wire.MustParseAddr("10.0.0.1")
	a2 := wire.MustParseAddr("10.0.0.2")
	r.Delegate("domain", a1)
	r.Delegate("experiment.domain", a2)
	zone, auth, ok := r.AuthFor("abc.www.experiment.domain")
	if !ok || zone != "experiment.domain" || auth != a2 {
		t.Errorf("AuthFor = %q %v %v", zone, auth, ok)
	}
	zone, auth, ok = r.AuthFor("other.domain")
	if !ok || zone != "domain" || auth != a1 {
		t.Errorf("AuthFor = %q %v %v", zone, auth, ok)
	}
	if _, _, ok := r.AuthFor("unknown.tld"); ok {
		t.Error("unknown zone should miss")
	}
	if got := r.Zones(); len(got) != 2 || got[0] != "domain" {
		t.Errorf("Zones = %v", got)
	}
}

// buildResolver wires a service with one instance and a stub authoritative
// server; returns (service, authQueries counter, client host).
func buildResolver(n *netsim.Network, geo *geodb.DB, retries int) (*Service, *int, *netsim.Host) {
	registry := NewRegistry()
	authAddr := wire.MustParseAddr("198.51.100.53")
	authQueries := new(int)
	auth := netsim.NewHost(n, authAddr)
	auth.ServeUDP(53, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		*authQueries++
		q, err := dnswire.Decode(payload)
		if err != nil {
			return nil
		}
		resp := dnswire.NewResponse(q, dnswire.RcodeNoError)
		resp.Header.AA = true
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: q.QName(), Type: dnswire.TypeA, TTL: 3600, Addr: wire.MustParseAddr("203.0.113.10"),
		})
		raw, _ := resp.Encode()
		return raw
	})
	registry.Delegate("experiment.domain", authAddr)

	svcAddr := wire.MustParseAddr("77.88.8.8")
	svc := NewService(n, "Yandex", svcAddr, registry, geo)
	egress := netsim.NewHost(n, wire.MustParseAddr("77.88.9.1"))
	svc.AddInstance(&Instance{Name: "default", Egress: []*netsim.Host{egress}, ExtraRetries: retries})

	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.1"))
	return svc, authQueries, client
}

func queryViaClient(t *testing.T, n *netsim.Network, client *netsim.Host, resolver wire.Addr, name string) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(0x42, name, dnswire.TypeA)
	payload, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var got *dnswire.Message
	client.SendUDPRequest(n, wire.Endpoint{Addr: resolver, Port: 53}, payload, netsim.UDPRequestOpts{
		Timeout: 30 * time.Second,
		Replier: netsim.ReplyFuncs{OnReply: func(n *netsim.Network, resp []byte) {
			m, err := dnswire.Decode(resp)
			if err != nil {
				t.Errorf("bad response: %v", err)
				return
			}
			got = m
		}},
	})
	n.RunUntilIdle()
	return got
}

func TestRecursiveResolution(t *testing.T) {
	n, geo := testWorld()
	svc, authQueries, client := buildResolver(n, geo, 0)
	resp := queryViaClient(t, n, client, svc.Addr, "abc.www.experiment.domain")
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Header.Rcode != dnswire.RcodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Answers[0].Addr != wire.MustParseAddr("203.0.113.10") {
		t.Errorf("A = %v", resp.Answers[0].Addr)
	}
	if *authQueries != 1 {
		t.Errorf("auth queries = %d, want 1", *authQueries)
	}
	if s := svc.Stats(); s.Queries != 1 || s.Upstream != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestResolverCache(t *testing.T) {
	n, geo := testWorld()
	svc, authQueries, client := buildResolver(n, geo, 0)
	queryViaClient(t, n, client, svc.Addr, "cached.www.experiment.domain")
	queryViaClient(t, n, client, svc.Addr, "cached.www.experiment.domain")
	if *authQueries != 1 {
		t.Errorf("auth queries = %d, want 1 (second answered from cache)", *authQueries)
	}
	if s := svc.Stats(); s.CacheHits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestResolverBenignRetries(t *testing.T) {
	n, geo := testWorld()
	svc, authQueries, client := buildResolver(n, geo, 2)
	queryViaClient(t, n, client, svc.Addr, "retry.www.experiment.domain")
	// Initial upstream + 2 duplicates = 3 auth arrivals — the "DNS zombie"
	// pattern within the first minute.
	if *authQueries != 3 {
		t.Errorf("auth queries = %d, want 3", *authQueries)
	}
	if s := svc.Stats(); s.RetriesIssued != 2 {
		t.Errorf("stats = %+v", s)
	}
	_ = svc
}

// TestResolverRetriesResendTheUpstreamQuery checks what the benign
// duplicates carry, not just how many arrive: the upstream query is
// encoded into the service's reused scratch, which later queries and
// replies overwrite before the duplicates go out, so each duplicate must
// resend its own copy of the query it repeats.
func TestResolverRetriesResendTheUpstreamQuery(t *testing.T) {
	n, geo := testWorld()
	registry := NewRegistry()
	authAddr := wire.MustParseAddr("198.51.100.53")
	seen := make(map[string]int)
	auth := netsim.NewHost(n, authAddr)
	auth.ServeUDP(53, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		q, err := dnswire.Decode(payload)
		if err != nil || q.Header.QR || q.Header.RD {
			t.Errorf("auth got %x, want an upstream query (QR and RD clear): %v", payload, err)
			return nil
		}
		seen[q.QName()]++
		resp := dnswire.NewResponse(q, dnswire.RcodeNoError)
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: q.QName(), Type: dnswire.TypeA, TTL: 3600, Addr: wire.MustParseAddr("203.0.113.10"),
		})
		raw, _ := resp.Encode()
		return raw
	})
	registry.Delegate("experiment.domain", authAddr)
	svc := NewService(n, "Yandex", wire.MustParseAddr("77.88.8.8"), registry, geo)
	egress := netsim.NewHost(n, wire.MustParseAddr("77.88.9.1"))
	svc.AddInstance(&Instance{Name: "default", Egress: []*netsim.Host{egress}, ExtraRetries: 2})

	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.1"))
	names := []string{"one.www.experiment.domain", "two.www.experiment.domain", "three.www.experiment.domain"}
	for i, name := range names {
		payload, err := dnswire.NewQuery(uint16(i+1), name, dnswire.TypeA).Encode()
		if err != nil {
			t.Fatal(err)
		}
		client.SendUDPRequest(n, wire.Endpoint{Addr: svc.Addr, Port: 53}, payload, netsim.UDPRequestOpts{Timeout: 30 * time.Second})
	}
	n.RunUntilIdle()
	for _, name := range names {
		if seen[name] != 3 {
			t.Errorf("auth saw %q %d times, want 3 (query + 2 duplicates); all arrivals: %v", name, seen[name], seen)
		}
	}
}

func TestResolverServfailOnUnknownZone(t *testing.T) {
	n, geo := testWorld()
	svc, _, client := buildResolver(n, geo, 0)
	resp := queryViaClient(t, n, client, svc.Addr, "www.unknown-zone.tld")
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Header.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode = %d, want SERVFAIL", resp.Header.Rcode)
	}
}

func TestAnycastInstanceSelection(t *testing.T) {
	n, geo := testWorld()
	// Two client networks: CN and US.
	geo.Register(wire.MustParseAddr("100.64.0.0"), 24, geodb.Info{Country: "US", ASN: 1})
	geo.Register(wire.MustParseAddr("100.65.0.0"), 24, geodb.Info{Country: "CN", ASN: 2})

	registry := NewRegistry()
	authAddr := wire.MustParseAddr("198.51.100.53")
	auth := netsim.NewHost(n, authAddr)
	auth.ServeUDP(53, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
		q, _ := dnswire.Decode(payload)
		resp := dnswire.NewResponse(q, dnswire.RcodeNoError)
		resp.Answers = append(resp.Answers, dnswire.RR{Name: q.QName(), Type: dnswire.TypeA, TTL: 60, Addr: wire.MustParseAddr("203.0.113.10")})
		raw, _ := resp.Encode()
		return raw
	})
	registry.Delegate("experiment.domain", authAddr)

	svc := NewService(n, "114DNS", wire.MustParseAddr("114.114.114.114"), registry, geo)
	cnEgress := netsim.NewHost(n, wire.MustParseAddr("114.114.115.1"))
	usEgress := netsim.NewHost(n, wire.MustParseAddr("114.114.116.1"))
	svc.AddInstance(&Instance{Name: "us-default", Egress: []*netsim.Host{usEgress}})
	svc.AddInstance(&Instance{Name: "cn", Countries: map[string]bool{"CN": true}, Egress: []*netsim.Host{cnEgress}})

	usClient := netsim.NewHost(n, wire.MustParseAddr("100.64.0.10"))
	cnClient := netsim.NewHost(n, wire.MustParseAddr("100.65.0.10"))

	if got := svc.instanceFor(usClient.Addr); got.Name != "us-default" {
		t.Errorf("US client routed to %q", got.Name)
	}
	if got := svc.instanceFor(cnClient.Addr); got.Name != "cn" {
		t.Errorf("CN client routed to %q", got.Name)
	}
	// Both resolve successfully end to end.
	if resp := queryViaClient(t, n, usClient, svc.Addr, "a.www.experiment.domain"); resp == nil || len(resp.Answers) != 1 {
		t.Error("US client resolution failed")
	}
	if resp := queryViaClient(t, n, cnClient, svc.Addr, "b.www.experiment.domain"); resp == nil || len(resp.Answers) != 1 {
		t.Error("CN client resolution failed")
	}
}

func TestReferralServer(t *testing.T) {
	n, _ := testWorld()
	root := NewReferralServer(n, "a.root", "", wire.MustParseAddr("198.41.0.4"))
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.1"))
	resp := queryViaClient(t, n, client, wire.MustParseAddr("198.41.0.4"), "abc.www.experiment.domain")
	if resp == nil {
		t.Fatal("no referral response")
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeNS {
		t.Fatalf("authority = %+v", resp.Authority)
	}
	if resp.Authority[0].Name != "domain" {
		t.Errorf("root referral = %q, want \"domain\"", resp.Authority[0].Name)
	}
	if root.Queries() != 1 {
		t.Errorf("queries = %d", root.Queries())
	}
}

func TestReferralChild(t *testing.T) {
	cases := []struct {
		name, zone, want string
	}{
		{"a.b.example.com", "com", "example.com"},
		{"abc.www.experiment.domain", "", "domain"},
		{"example.com", "com", "example.com"},
		{"com", "com", "com"},
		{"unrelated.org", "com", "unrelated.org"},
	}
	for _, tc := range cases {
		if got := referralChild(tc.name, tc.zone); got != tc.want {
			t.Errorf("referralChild(%q, %q) = %q, want %q", tc.name, tc.zone, got, tc.want)
		}
	}
}

func TestCatalogIntegrity(t *testing.T) {
	if len(PublicResolvers) != 20 {
		t.Errorf("public resolvers = %d, want 20", len(PublicResolvers))
	}
	if len(RootServers) != 13 {
		t.Errorf("root servers = %d, want 13", len(RootServers))
	}
	if len(TLDServers) != 2 {
		t.Errorf("TLD servers = %d, want 2", len(TLDServers))
	}
	seen := make(map[wire.Addr]bool)
	for _, r := range PublicResolvers {
		if seen[r.Addr] {
			t.Errorf("duplicate resolver address %v", r.Addr)
		}
		seen[r.Addr] = true
	}
	for _, name := range ResolverH {
		found := false
		for _, r := range PublicResolvers {
			if r.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("Resolver_h member %q missing from catalog", name)
		}
	}
	if !IsResolverH("Yandex") || IsResolverH("Google") {
		t.Error("IsResolverH misclassifies")
	}
}

func TestDoHEndToEnd(t *testing.T) {
	n, geo := testWorld()
	svc, authQueries, _ := buildResolver(n, geo, 0)
	svc.EnableDoH()

	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.7"))
	q := dnswire.NewQuery(0x31, "doh-test.www.experiment.domain", dnswire.TypeA)
	inner, _ := q.Encode()
	req := &httpwire.Request{
		Method: "POST", Path: "/dns-query",
		Headers: map[string]string{"host": "doh.resolver.example", "content-type": "application/dns-message"},
		Body:    inner,
	}
	var answer *dnswire.Message
	client.SendTCPRequest(n, wire.Endpoint{Addr: svc.Addr, Port: 443}, req.Encode(), netsim.TCPRequestOpts{
		Timeout: 30 * time.Second,
		OnResponse: func(n *netsim.Network, payload []byte) {
			resp, err := httpwire.ParseResponse(payload)
			if err != nil {
				t.Errorf("bad DoH envelope: %v", err)
				return
			}
			if resp.Headers["content-type"] != "application/dns-message" {
				t.Errorf("content-type = %q", resp.Headers["content-type"])
			}
			answer, _ = dnswire.Decode(resp.Body)
		},
	})
	n.RunUntilIdle()
	if answer == nil {
		t.Fatal("no DoH answer")
	}
	if answer.Header.Rcode != dnswire.RcodeNoError || len(answer.Answers) != 1 {
		t.Fatalf("answer = %+v", answer)
	}
	if *authQueries != 1 {
		t.Errorf("auth queries = %d, want 1 (DoH recursion)", *authQueries)
	}
	if svc.Stats().DoHQueries != 1 {
		t.Errorf("stats = %+v", svc.Stats())
	}
}

func TestDoHRejectsNonQuery(t *testing.T) {
	n, geo := testWorld()
	svc, _, _ := buildResolver(n, geo, 0)
	svc.EnableDoH()
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.8"))
	var status int
	client.SendTCPRequest(n, wire.Endpoint{Addr: svc.Addr, Port: 443}, httpwire.NewGET("x", "/dns-query").Encode(), netsim.TCPRequestOpts{
		Timeout: 5 * time.Second,
		OnResponse: func(n *netsim.Network, payload []byte) {
			if r, err := httpwire.ParseResponse(payload); err == nil {
				status = r.StatusCode
			}
		},
	})
	n.RunUntilIdle()
	if status != 400 {
		t.Errorf("GET /dns-query status = %d, want 400", status)
	}
}

func TestObliviousProxyRelay(t *testing.T) {
	n, geo := testWorld()
	svc, authQueries, _ := buildResolver(n, geo, 0)
	svc.EnableDoH()
	proxy := NewObliviousProxy(n, wire.MustParseAddr("192.0.2.99"))

	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.9"))
	q := dnswire.NewQuery(0x51, "odoh-test.www.experiment.domain", dnswire.TypeA)
	inner, _ := q.Encode()
	req := &httpwire.Request{
		Method: "POST", Path: "/odoh",
		Headers: map[string]string{
			"host":         "odoh-proxy.example",
			"content-type": "application/oblivious-dns-message",
			"odoh-target":  svc.Addr.String(),
		},
		Body: inner,
	}
	var answer *dnswire.Message
	client.SendTCPRequest(n, wire.Endpoint{Addr: proxy.Addr, Port: 443}, req.Encode(), netsim.TCPRequestOpts{
		Timeout: 60 * time.Second,
		OnResponse: func(n *netsim.Network, payload []byte) {
			resp, err := httpwire.ParseResponse(payload)
			if err != nil {
				t.Errorf("bad relayed envelope: %v", err)
				return
			}
			answer, _ = dnswire.Decode(resp.Body)
		},
	})
	n.RunUntilIdle()

	if proxy.Relayed() != 1 {
		t.Errorf("relayed = %d", proxy.Relayed())
	}
	if answer == nil || len(answer.Answers) != 1 {
		t.Fatalf("no relayed DNS answer: %+v", answer)
	}
	if *authQueries != 1 {
		t.Errorf("auth queries = %d", *authQueries)
	}
	// The privacy split: the resolver saw exactly one client — the proxy.
	if got := svc.DistinctClients(); got != 1 {
		t.Errorf("resolver saw %d clients, want 1 (the relay)", got)
	}
}

func TestObliviousProxyRejectsBadRequests(t *testing.T) {
	n, _ := testWorld()
	proxy := NewObliviousProxy(n, wire.MustParseAddr("192.0.2.99"))
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.9"))
	check := func(payload []byte, wantStatus int) {
		t.Helper()
		var status int
		client.SendTCPRequest(n, wire.Endpoint{Addr: proxy.Addr, Port: 443}, payload, netsim.TCPRequestOpts{
			Timeout: 5 * time.Second,
			OnResponse: func(n *netsim.Network, resp []byte) {
				if r, err := httpwire.ParseResponse(resp); err == nil {
					status = r.StatusCode
				}
			},
		})
		n.RunUntilIdle()
		if status != wantStatus {
			t.Errorf("status = %d, want %d", status, wantStatus)
		}
	}
	// GET is rejected.
	check(httpwire.NewGET("x", "/odoh").Encode(), 400)
	// Missing target is rejected.
	req := &httpwire.Request{Method: "POST", Path: "/odoh", Headers: map[string]string{"host": "p"}, Body: []byte("x")}
	check(req.Encode(), 400)
}

func TestObliviousProxyUnreachableTarget(t *testing.T) {
	n, _ := testWorld()
	proxy := NewObliviousProxy(n, wire.MustParseAddr("192.0.2.99"))
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.9"))
	req := &httpwire.Request{
		Method: "POST", Path: "/odoh",
		Headers: map[string]string{"host": "p", "odoh-target": "203.0.113.253"},
		Body:    []byte("query"),
	}
	var status int
	client.SendTCPRequest(n, wire.Endpoint{Addr: proxy.Addr, Port: 443}, req.Encode(), netsim.TCPRequestOpts{
		Timeout: 60 * time.Second,
		OnResponse: func(n *netsim.Network, resp []byte) {
			if r, err := httpwire.ParseResponse(resp); err == nil {
				status = r.StatusCode
			}
		},
	})
	n.RunUntilIdle()
	if status != 502 {
		t.Errorf("status = %d, want 502 (target unreachable)", status)
	}
}

func TestDoHCacheHit(t *testing.T) {
	n, geo := testWorld()
	svc, authQueries, _ := buildResolver(n, geo, 0)
	svc.EnableDoH()
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.7"))
	ask := func() {
		q := dnswire.NewQuery(0x61, "cached-doh.www.experiment.domain", dnswire.TypeA)
		inner, _ := q.Encode()
		req := &httpwire.Request{
			Method: "POST", Path: "/dns-query",
			Headers: map[string]string{"host": "doh.x", "content-type": "application/dns-message"},
			Body:    inner,
		}
		client.SendTCPRequest(n, wire.Endpoint{Addr: svc.Addr, Port: 443}, req.Encode(), netsim.TCPRequestOpts{Timeout: 30 * time.Second})
		n.RunUntilIdle()
	}
	ask()
	ask()
	if *authQueries != 1 {
		t.Errorf("auth queries = %d, want 1 (second from cache)", *authQueries)
	}
	if svc.Stats().CacheHits != 1 {
		t.Errorf("stats = %+v", svc.Stats())
	}
}

// TestResolverCacheEviction streams unique names through one instance
// while virtual time advances, so entries expire behind the stream: the
// cache must stay within twice its unexpired entries (plus the sweep
// floor), a live entry must still answer from cache after sweeps, and an
// expired one must recurse upstream again.
func TestResolverCacheEviction(t *testing.T) {
	n, geo := testWorld()
	svc, authQueries, client := buildResolver(n, geo, 0)
	inst := svc.def
	unexpired := func() int {
		live := 0
		for _, e := range inst.cache {
			if n.Now().Before(e.expires) {
				live++
			}
		}
		return live
	}
	// stream sends one unique name per virtual second. The answers land
	// within milliseconds; the requests' timeouts drain in the later steps.
	stream := func(prefix string, count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			q := dnswire.NewQuery(uint16(i), fmt.Sprintf("%s%d.www.experiment.domain", prefix, i), dnswire.TypeA)
			payload, err := q.Encode()
			if err != nil {
				t.Fatal(err)
			}
			client.SendUDPRequest(n, wire.Endpoint{Addr: svc.Addr, Port: 53}, payload, netsim.UDPRequestOpts{Timeout: 5 * time.Second})
			n.Run(n.Now().Add(time.Second))
			if got, live := len(inst.cache), unexpired(); got > 2*live+minSweep {
				t.Fatalf("after %d names: cache holds %d entries, %d unexpired (bound %d)", i+1, got, live, 2*live+minSweep)
			}
		}
		n.RunUntilIdle()
	}

	// The stub authority answers with a 3600 s TTL. 1,500 names in 1,500 s
	// pass the 1,024-entry sweep floor while "kept" is still live.
	queryViaClient(t, n, client, svc.Addr, "kept.www.experiment.domain")
	stream("a", 1500)
	if inst.swept == 0 {
		t.Fatal("no sweep ran over 1,500 unique names")
	}
	before := svc.Stats()
	queryViaClient(t, n, client, svc.Addr, "kept.www.experiment.domain")
	after := svc.Stats()
	if after.CacheHits != before.CacheHits+1 || after.Upstream != before.Upstream {
		t.Errorf("live entry after a sweep: cache hits %d -> %d, upstream %d -> %d; want one hit, no recursion",
			before.CacheHits, after.CacheHits, before.Upstream, after.Upstream)
	}

	// Stream on past the TTL of "kept" and through the next doubling, so a
	// sweep finds it expired.
	stream("b", 3000)
	if _, ok := inst.cache[cacheKey{"kept.www.experiment.domain", dnswire.TypeA}]; ok {
		t.Fatal("expired entry survived every sweep")
	}
	queries := *authQueries
	before = svc.Stats()
	queryViaClient(t, n, client, svc.Addr, "kept.www.experiment.domain")
	after = svc.Stats()
	if *authQueries != queries+1 || after.CacheHits != before.CacheHits {
		t.Errorf("expired entry: auth queries %d -> %d, cache hits %d -> %d; want one recursion, no hit",
			queries, *authQueries, before.CacheHits, after.CacheHits)
	}
}
