// Package honeypot implements the capture infrastructure of the
// experiment: authoritative DNS servers for the experiment zone (wildcard
// records resolving every decoy domain to honey web servers) and the honey
// HTTP/HTTPS sites those records point at.
//
// Honeypots only *log*. Deciding whether an arriving request is
// unsolicited — the three classification rules of Section 3 — is the
// correlation stage's job (internal/correlate), which consumes the capture
// log together with the decoy send log.
package honeypot

import (
	"sync"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/identifier"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/tlswire"
	"shadowmeter/internal/wire"
)

// Capture is one request logged by a honeypot.
type Capture struct {
	Time     time.Time
	Location string         // honeypot site, e.g. "US"
	Protocol decoy.Protocol // protocol of the arriving request
	Source   wire.Endpoint
	Domain   string // experiment domain carried by the request
	Label    string // left-most label (encoded identifier)
	HTTPPath string // HTTP(S) only
	Payload  string // request head for signature matching
	DNSType  uint16 // DNS only
}

// logChunk is the capture count of one Log chunk (128 KiB of Captures).
const logChunk = 1024

// Log is a thread-safe append-only capture log shared by all honeypot
// sites. Captures live in fixed-size chunks that are allocated once and
// never copied or moved, so a log of any length grows without
// re-copying what it already holds.
type Log struct {
	mu     sync.Mutex
	chunks [][]Capture // every chunk has cap logChunk; all but the last are full
	n      int
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Append adds one capture.
func (l *Log) Append(c Capture) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n%logChunk == 0 {
		l.chunks = append(l.chunks, make([]Capture, 0, logChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, c)
	l.n++
}

// Snapshot copies the log contents.
func (l *Log) Snapshot() []Capture { return l.SnapshotFrom(0) }

// SnapshotFrom copies the captures from index i on: the tail a consumer
// that has already processed the first i needs. An i at or past the end
// yields an empty slice.
func (l *Log) SnapshotFrom(i int) []Capture {
	views := l.ChunksFrom(i)
	if len(views) == 0 {
		return nil
	}
	n := 0
	for _, v := range views {
		n += len(v)
	}
	out := make([]Capture, 0, n)
	for _, v := range views {
		out = append(out, v...)
	}
	return out
}

// ChunksFrom returns the captures from index i on without copying them:
// one view per chunk, in log order. Each view's capacity is capped at its
// length, so appending to a view copies it instead of writing into the
// log. Logged captures are never modified, so the views stay valid (and
// unchanged) while later captures are appended. An i at or past the end
// yields no views.
func (l *Log) ChunksFrom(i int) [][]Capture {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= l.n {
		return nil
	}
	first := i / logChunk
	views := make([][]Capture, 0, len(l.chunks)-first)
	for k, ch := range l.chunks[first:] {
		lo := 0
		if k == 0 {
			lo = i % logChunk
		}
		views = append(views, ch[lo:len(ch):len(ch)])
	}
	return views
}

// Len reports the number of captures.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Site is one honeypot location: an authoritative DNS server and a honey
// web server.
type Site struct {
	Location string
	AuthAddr wire.Addr
	WebAddr  wire.Addr
}

// Config parameterizes a honeypot deployment.
type Config struct {
	// Zone is the experiment domain (wildcarded to the honeypots).
	Zone string
	// RecordTTL is the wildcard DNS record TTL; the paper uses 3600s.
	RecordTTL uint32
	// Codec decodes identifier labels for pre-filtering; optional.
	Codec *identifier.Codec
	// Telemetry receives capture counters. Nil creates a private set so
	// the handlers never nil-check.
	Telemetry *telemetry.Set
}

// Deployment is the set of honeypot sites plus their shared log.
type Deployment struct {
	Zone  string
	Sites []*Site
	Log   *Log

	recordTTL uint32
	codec     *identifier.Codec
	webAddrs  []wire.Addr

	// enc is reply-encode scratch. Handlers run on the world's single
	// event-loop goroutine, and the packet builder copies the bytes before
	// the next query can arrive, so one per-deployment encoder is safe.
	//
	//shadowlint:eventloop
	enc dnswire.Encoder
	// dec and resp are decode/reply scratch under the same single-
	// goroutine contract: handleDNS fully consumes the query (the name
	// strings it retains in Captures are fresh allocations) and encodes
	// the reply before returning, so both messages are dead by the time
	// the next query arrives and their section arrays can be recycled.
	//
	//shadowlint:eventloop
	dec dnswire.Message
	//shadowlint:eventloop
	resp dnswire.Message
	// req is HTTP parse scratch under the same contract: the strings a
	// Capture keeps are fresh copies or shared constants, and the header
	// map is cleared by the next parse.
	//
	//shadowlint:eventloop
	req httpwire.Request
	// hello is ClientHello parse scratch under the same contract: only
	// its server name, a fresh string, outlives the handler.
	//
	//shadowlint:eventloop
	hello tlswire.ClientHello
	// serverHello is the TLS reply's encode scratch under the same
	// contract: the network copies a handler's reply into its packet
	// before the next capture arrives.
	//
	//shadowlint:eventloop
	serverHello []byte

	// notFound, homepageResp and badRequest are the static HTTP replies,
	// encoded once at deploy time; the host copies a reply into its packet,
	// so every request can share them.
	notFound, homepageResp, badRequest []byte

	m deploymentMetrics
}

type deploymentMetrics struct {
	captures       *telemetry.CounterVec // by protocol
	capturesDNS    *telemetry.Counter    // cached children of captures
	capturesHTTP   *telemetry.Counter
	capturesTLS    *telemetry.Counter
	unparseable    *telemetry.Counter
	homepageVisits *telemetry.Counter
}

func newDeploymentMetrics(reg *telemetry.Registry) deploymentMetrics {
	captures := reg.CounterVec("honeypot_captures_total", "requests logged by honeypot sites", "protocol")
	return deploymentMetrics{
		captures:       captures,
		capturesDNS:    captures.With("dns"),
		capturesHTTP:   captures.With("http"),
		capturesTLS:    captures.With("tls"),
		unparseable:    reg.Counter("honeypot_unparseable_total", "malformed arrivals at honeypot sites"),
		homepageVisits: reg.Counter("honeypot_homepage_visits_total", "fetches of the experiment homepage"),
	}
}

// HomepageHTML is served at "/" — the paper documents the experiment and a
// contact address on the honey site's homepage (Appendix A).
const HomepageHTML = `<html><head><title>Network Measurement Experiment</title></head>
<body><h1>Internet Traffic Shadowing Measurement</h1>
<p>This server is part of an academic measurement experiment studying
unsolicited re-use of network traffic data. No personal data is collected.
Contact: research@experiment.invalid</p></body></html>`

// Deploy builds sites at the given locations, registers their hosts on the
// network, installs the zone delegation, and returns the deployment.
// Addresses are supplied by the caller (core allocates them in hosting
// ASes of the right countries).
func Deploy(n *netsim.Network, cfg Config, sites []*Site, registry interface {
	Delegate(zone string, auth wire.Addr)
}) *Deployment {
	ttl := cfg.RecordTTL
	if ttl == 0 {
		ttl = 3600
	}
	tele := cfg.Telemetry
	if tele == nil {
		tele = telemetry.NewSet()
	}
	d := &Deployment{
		Zone:      dnswire.Canonical(cfg.Zone),
		Sites:     sites,
		Log:       NewLog(),
		recordTTL: ttl,
		codec:     cfg.Codec,
		m:         newDeploymentMetrics(tele.Registry),

		notFound:     httpwire.NewResponse(404, "not found").Encode(),
		homepageResp: httpwire.NewResponse(200, HomepageHTML).Encode(),
		badRequest:   httpwire.NewResponse(400, "bad request").Encode(),
	}
	for _, s := range sites {
		d.webAddrs = append(d.webAddrs, s.WebAddr)
	}
	for _, s := range sites {
		s := s
		auth := netsim.NewHost(n, s.AuthAddr)
		auth.ServeUDP(53, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
			return d.handleDNS(n, s, from, payload)
		})
		web := netsim.NewHost(n, s.WebAddr)
		web.ServeTCP(80, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
			return d.handleHTTP(n, s, from, payload)
		})
		web.ServeTCP(443, func(n *netsim.Network, from wire.Endpoint, payload []byte) []byte {
			return d.handleTLS(n, s, from, payload)
		})
	}
	// All sites serve the zone; the first is the registered primary.
	if len(sites) > 0 && registry != nil {
		registry.Delegate(d.Zone, sites[0].AuthAddr)
	}
	return d
}

// handleDNS answers authoritative queries for the experiment zone with the
// wildcard A records pointing at the honey web servers, logging every
// arrival.
func (d *Deployment) handleDNS(n *netsim.Network, s *Site, from wire.Endpoint, payload []byte) []byte {
	q := &d.dec
	if err := dnswire.DecodeInto(q, payload); err != nil || q.Header.QR || len(q.Questions) == 0 {
		d.m.unparseable.Inc()
		return nil
	}
	name := q.QName()
	if !dnswire.IsSubdomain(name, d.Zone) {
		dnswire.ResponseInto(&d.resp, q, dnswire.RcodeRefused)
		raw, err := d.resp.AppendEncode(&d.enc)
		if err != nil {
			return nil
		}
		return raw
	}
	d.Log.Append(Capture{
		Time: n.Now(), Location: s.Location, Protocol: decoy.DNS,
		Source: from, Domain: name, Label: firstIdentifierLabel(name),
		DNSType: q.QType(),
	})
	d.m.capturesDNS.Inc()
	resp := &d.resp
	dnswire.ResponseInto(resp, q, dnswire.RcodeNoError)
	resp.Header.AA = true
	if q.QType() == dnswire.TypeA || q.QType() == dnswire.TypeANY {
		// Rotate the answer order by name hash so probe traffic spreads
		// over the three sites.
		start := nameHash(name) % len(d.webAddrs)
		for i := 0; i < len(d.webAddrs); i++ {
			addr := d.webAddrs[(start+i)%len(d.webAddrs)]
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: name, Type: dnswire.TypeA, TTL: d.recordTTL, Addr: addr,
			})
		}
	}
	raw, err := resp.AppendEncode(&d.enc)
	if err != nil {
		return nil
	}
	return raw
}

// handleHTTP serves the honey website and logs the request.
func (d *Deployment) handleHTTP(n *netsim.Network, s *Site, from wire.Endpoint, payload []byte) []byte {
	req := &d.req
	if err := httpwire.ParseRequestInto(req, payload); err != nil {
		d.m.unparseable.Inc()
		return d.badRequest
	}
	host := dnswire.Canonical(req.Host())
	d.Log.Append(Capture{
		Time: n.Now(), Location: s.Location, Protocol: decoy.HTTP,
		Source: from, Domain: host, Label: firstIdentifierLabel(host),
		HTTPPath: req.Path, Payload: requestHead(req),
	})
	d.m.capturesHTTP.Inc()
	if req.Path == "/" {
		d.m.homepageVisits.Inc()
		return d.homepageResp
	}
	return d.notFound
}

// handleTLS answers ClientHellos with a minimal ServerHello and logs SNI.
func (d *Deployment) handleTLS(n *netsim.Network, s *Site, from wire.Endpoint, payload []byte) []byte {
	if err := tlswire.ParseClientHelloInto(&d.hello, payload); err != nil {
		d.m.unparseable.Inc()
		return nil
	}
	name := dnswire.Canonical(d.hello.ServerName)
	d.Log.Append(Capture{
		Time: n.Now(), Location: s.Location, Protocol: decoy.TLS,
		Source: from, Domain: name, Label: firstIdentifierLabel(name),
		Payload: "CLIENTHELLO sni=" + name,
	})
	d.m.capturesTLS.Inc()
	sh := tlswire.ServerHello{Version: tlswire.VersionTLS12, CipherSuite: 0x1301}
	copy(sh.Random[:], name) // deterministic, content-derived
	d.serverHello = sh.AppendEncode(d.serverHello[:0])
	return d.serverHello
}

// firstIdentifierLabel extracts the left-most label if it is shaped like an
// encoded identifier, else "".
func firstIdentifierLabel(name string) string {
	label := dnswire.FirstLabel(name)
	if identifier.IsIdentifierLabel(label) {
		return label
	}
	return ""
}

// requestHead renders the request line and Host for signature matching,
// as one string concatenation (a single allocation).
func requestHead(req *httpwire.Request) string {
	return req.Method + " " + req.Path + " " + req.Proto + " host=" + req.Host()
}

func nameHash(s string) int {
	h := 2166136261
	for i := 0; i < len(s); i++ {
		h = (h ^ int(s[i])) * 16777619 & 0x7FFFFFFF
	}
	return h
}
