// Package decoy generates the DNS, HTTP, and TLS decoy traffic described in
// Section 3 of the paper. Every decoy embeds a unique experiment domain
//
//	<identifier>.www.<experiment zone>
//
// whose left-most label encodes (time, VP address, destination address,
// initial TTL) via internal/identifier. Wildcard DNS for the experiment
// zone points at the honeypots, so any later use of the domain — over any
// protocol — arrives at infrastructure we control.
package decoy

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/identifier"
	"shadowmeter/internal/tlswire"
	"shadowmeter/internal/wire"
)

// Protocol identifies a decoy (or unsolicited-request) protocol.
type Protocol int

// Decoy protocols, in the paper's order.
const (
	DNS Protocol = iota
	HTTP
	TLS
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case DNS:
		return "DNS"
	case HTTP:
		return "HTTP"
	case TLS:
		return "TLS"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Protocols lists all decoy protocols.
var Protocols = []Protocol{DNS, HTTP, TLS}

// Decoy is one generated decoy message, ready to emit.
type Decoy struct {
	Protocol Protocol
	ID       identifier.ID
	Label    string // encoded identifier (left-most domain label), a prefix of Domain
	Domain   string // full experiment domain
	VP       wire.Addr
	Dst      wire.Endpoint
	// Payload is the serialized application message: a DNS query, an HTTP
	// GET, or a TLS ClientHello.
	Payload []byte
	// DNSQueryID is the DNS transaction ID (DNS decoys only), used by the
	// control resolver and interception heuristics.
	DNSQueryID uint16
	// Encrypted marks mitigation-mode decoys: TLS with ECH (no clear-text
	// SNI) or DNS over HTTPS (query wrapped for the resolver's port 443).
	Encrypted bool
}

// Generator builds decoys for one experiment zone.
type Generator struct {
	codec *identifier.Codec
	zone  string // experiment zone, e.g. "experiment.domain"

	mu    sync.Mutex
	nonce uint16
}

// NewGenerator creates a generator. zone is the registered experiment
// domain; epoch anchors identifier timestamps and must match the honeypot
// codec.
func NewGenerator(zone string, epoch time.Time) *Generator {
	return &Generator{codec: identifier.NewCodec(epoch), zone: dnswire.Canonical(zone)}
}

// Zone returns the experiment zone.
func (g *Generator) Zone() string { return g.zone }

// Codec exposes the identifier codec (shared with honeypots in tests).
func (g *Generator) Codec() *identifier.Codec { return g.codec }

// Generate builds one decoy for proto from vp to dst with the given initial
// TTL at virtual time now. Its payload is encoded once, into a buffer of
// exactly its size that the decoy owns: SendTCPRequest holds it across the
// handshake.
func (g *Generator) Generate(proto Protocol, now time.Time, vp wire.Addr, dst wire.Endpoint, ttl uint8) (*Decoy, error) {
	d, err := g.identify(proto, now, vp, dst, ttl)
	if err != nil {
		return nil, err
	}
	switch proto {
	case DNS:
		d.DNSQueryID = d.ID.Nonce ^ uint16(d.ID.Time.Unix())
		d.Payload, err = dnswire.EncodeQuery(d.DNSQueryID, d.Domain, dnswire.TypeA)
		if err != nil {
			return nil, fmt.Errorf("decoy: encode DNS: %w", err)
		}
	case HTTP:
		d.Payload = httpwire.EncodeGET(d.Domain, "/")
	case TLS:
		d.Payload, err = tlswire.EncodeClientHello(d.Domain, clientRandom(d.ID))
		if err != nil {
			return nil, fmt.Errorf("decoy: encode TLS: %w", err)
		}
	default:
		return nil, fmt.Errorf("decoy: unknown protocol %v", proto)
	}
	return d, nil
}

// identify draws the next nonce and builds a decoy's identity (ID, label
// and domain) with no payload yet.
func (g *Generator) identify(proto Protocol, now time.Time, vp wire.Addr, dst wire.Endpoint, ttl uint8) (*Decoy, error) {
	g.mu.Lock()
	g.nonce++
	nonce := g.nonce
	g.mu.Unlock()

	id := identifier.ID{Time: now, VP: vp, Dst: dst.Addr, TTL: ttl, Nonce: nonce}
	// One allocation for the domain; the label is its prefix.
	var scratch [128]byte
	buf, err := g.codec.AppendEncode(scratch[:0], id)
	if err != nil {
		return nil, fmt.Errorf("decoy: %w", err)
	}
	n := len(buf)
	buf = append(append(buf, ".www."...), g.zone...)
	domain := string(buf)
	return &Decoy{
		Protocol: proto, ID: id, Label: domain[:n], Domain: domain,
		VP: vp, Dst: dst,
	}, nil
}

// GenerateECH builds a TLS decoy whose server name travels only inside the
// encrypted_client_hello extension — nothing for on-path observers to
// sniff, while the terminating server still sees the domain. Part of the
// mitigation study motivated by the paper's Discussion.
func (g *Generator) GenerateECH(now time.Time, vp wire.Addr, dst wire.Endpoint, ttl uint8) (*Decoy, error) {
	d, err := g.identify(TLS, now, vp, dst, ttl)
	if err != nil {
		return nil, err
	}
	d.Payload, err = tlswire.EncodeClientHelloECH(d.Domain, clientRandom(d.ID))
	if err != nil {
		return nil, err
	}
	d.Encrypted = true
	return d, nil
}

// GenerateDoH builds a DNS decoy carried over DNS-over-HTTPS: the query is
// wrapped in an RFC 8484 POST toward the resolver's port 443, so on-path
// devices see neither a QNAME nor a meaningful Host header — but the
// resolver still decodes (and may retain) the name.
func (g *Generator) GenerateDoH(now time.Time, vp wire.Addr, dst wire.Endpoint, ttl uint8) (*Decoy, error) {
	d, err := g.Generate(DNS, now, vp, dst, ttl)
	if err != nil {
		return nil, err
	}
	req := &httpwire.Request{
		Method: "POST",
		Path:   "/dns-query",
		Headers: map[string]string{
			"host":         "doh." + g.zone, // names the resolver, not the decoy
			"content-type": "application/dns-message",
			"accept":       "application/dns-message",
		},
		Body: d.Payload,
	}
	d.Payload = req.Encode()
	d.Dst.Port = 443
	d.Encrypted = true
	return d, nil
}

// GenerateODoH builds a DNS decoy relayed through an Oblivious DoH proxy
// (RFC 9230, recommended by the paper's Discussion): the query travels to
// proxy, which forwards it to resolver from its own address. The resolver
// still decodes (and may retain) the name but never learns the client.
func (g *Generator) GenerateODoH(now time.Time, vp wire.Addr, proxy wire.Endpoint, resolver wire.Addr, ttl uint8) (*Decoy, error) {
	d, err := g.Generate(DNS, now, vp, wire.Endpoint{Addr: resolver, Port: 53}, ttl)
	if err != nil {
		return nil, err
	}
	req := &httpwire.Request{
		Method: "POST",
		Path:   "/odoh",
		Headers: map[string]string{
			"host":         "odoh-proxy." + g.zone,
			"content-type": "application/oblivious-dns-message",
			"odoh-target":  resolver.String(),
		},
		Body: d.Payload,
	}
	d.Payload = req.Encode()
	d.Dst = wire.Endpoint{Addr: proxy.Addr, Port: 443}
	d.Encrypted = true
	return d, nil
}

// clientRandom derives a deterministic 32-byte client random from the
// identifier, keeping TLS decoys reproducible without a global RNG.
func clientRandom(id identifier.ID) [32]byte {
	var seed [16]byte
	secs := id.Time.Unix()
	seed[0] = byte(secs >> 24)
	seed[1] = byte(secs >> 16)
	seed[2] = byte(secs >> 8)
	seed[3] = byte(secs)
	copy(seed[4:8], id.VP[:])
	copy(seed[8:12], id.Dst[:])
	seed[12] = id.TTL
	seed[13] = byte(id.Nonce >> 8)
	seed[14] = byte(id.Nonce)
	return sha256.Sum256(seed[:])
}

// PortProtocol maps a destination port to the decoy protocol an on-path
// DPI box expects there: 53 DNS, 80 HTTP, 443 TLS. Any other port carries
// no decoy protocol, and ok is false.
func PortProtocol(port uint16) (proto Protocol, ok bool) {
	switch port {
	case 53:
		return DNS, true
	case 80:
		return HTTP, true
	case 443:
		return TLS, true
	}
	return 0, false
}

// ExtractDomain pulls the experiment domain out of a decoy-protocol message
// as an on-path observer would: QNAME for DNS, Host header for HTTP, SNI
// for TLS, canonicalized. It returns ok=false when the payload does not
// parse or carries no domain.
func ExtractDomain(proto Protocol, payload []byte) (string, bool) {
	switch proto {
	case DNS:
		return dnswire.QueryNameFromBytes(payload)
	case HTTP:
		host, ok := httpwire.HostFromBytes(payload)
		if !ok || host == "" {
			return "", false
		}
		return dnswire.Canonical(host), true
	case TLS:
		name, err := tlswire.SNIFromBytes(payload)
		if err != nil {
			return "", false
		}
		return dnswire.Canonical(name), true
	}
	return "", false
}

// Pacer enforces the ethics rate limit of Section A: at most `Rate` decoys
// per second toward any single target. NextSendTime returns the earliest
// virtual time a new decoy may be emitted to the target, and reserves it.
type Pacer struct {
	mu       sync.Mutex
	interval time.Duration
	last     map[wire.Addr]time.Time
}

// NewPacer builds a pacer allowing ratePerSecond packets per target-second.
func NewPacer(ratePerSecond float64) *Pacer {
	if ratePerSecond <= 0 {
		ratePerSecond = 2
	}
	return &Pacer{
		interval: time.Duration(float64(time.Second) / ratePerSecond),
		last:     make(map[wire.Addr]time.Time),
	}
}

// NextSendTime reserves and returns the next allowed emission time toward
// target, no earlier than now.
func (p *Pacer) NextSendTime(now time.Time, target wire.Addr) time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := now
	if last, ok := p.last[target]; ok {
		if next := last.Add(p.interval); next.After(t) {
			t = next
		}
	}
	p.last[target] = t
	return t
}
