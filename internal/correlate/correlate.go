// Package correlate joins honeypot captures with the decoy send log and
// applies the paper's three unsolicited-request rules (Section 3):
//
// An incoming request bearing decoy data is unsolicited if
//
//	i)   request and decoy protocols differ (that data was never sent over
//	     the request protocol); or
//	ii)  the request protocol is HTTP or TLS (no HTTP/TLS decoys are ever
//	     sent to the honeypots); or
//	iii) the request protocol is DNS and the unique query name already
//	     appeared in an earlier DNS query (the initial decoy's recursion).
//
// The output — one Unsolicited record per flagged capture, tied back to
// the decoy that planted the data — is what every table and figure of the
// behavioral analysis consumes.
package correlate

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/honeypot"
	"shadowmeter/internal/identifier"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/wire"
)

// Phase tags which experiment phase emitted a decoy.
type Phase int

// Experiment phases.
const (
	PhaseI  Phase = 1 // landscape scan
	PhaseII Phase = 2 // hop-by-hop traceroute
)

// Sent is the send-log record of one decoy emission.
type Sent struct {
	Label    string
	Domain   string
	Protocol decoy.Protocol
	VP       wire.Addr
	Dst      wire.Endpoint
	DstName  string // human name of the destination (resolver name, site)
	Time     time.Time
	TTL      uint8
	Phase    Phase
	// ExpectRecursion marks DNS decoys sent to recursive resolvers in
	// Phase I: exactly one authoritative query (the resolver answering the
	// waiting client) is solicited. Phase II TTL-limited probes and decoys
	// to non-recursive destinations expect none, so even the first DNS
	// re-appearance of their names is unsolicited — the "initial decoy" of
	// rule iii is the probe itself, known from the send log.
	ExpectRecursion bool
}

// PathKey identifies a client-server path.
type PathKey struct {
	VP  wire.Addr
	Dst wire.Addr
}

// Unsolicited is one classified unsolicited request.
type Unsolicited struct {
	Capture honeypot.Capture
	Sent    *Sent
	// Delay is the interval between decoy emission and this request.
	Delay time.Duration
	// Combination is the paper's Decoy-Request label, e.g. "DNS-HTTP".
	Combination string
	// Rule records which classification rule fired (1, 2 or 3).
	Rule int
}

// Correlator accumulates the send log and classifies captures.
type Correlator struct {
	codec *identifier.Codec

	mu    sync.Mutex
	log   sendLog
	stats Stats
	m     correlatorMetrics
}

type correlatorMetrics struct {
	captures       *telemetry.Counter
	solicited      *telemetry.Counter
	unknownLabel   *telemetry.Counter
	crcRejected    *telemetry.Counter
	labelCollision *telemetry.Counter
	unsolicited    *telemetry.CounterVec // by rule
	rule1          *telemetry.Counter    // cached children of unsolicited
	rule2          *telemetry.Counter
	rule3          *telemetry.Counter
	delay          *telemetry.Histogram
}

// delayBounds bucket the decoy-to-reuse interval in seconds: 1s, 10s,
// 1m, 10m, 1h, 6h, 1d, 3d, 10d — the resolution behind the paper's
// delay CDF (Figure 4), which spans seconds to days.
var delayBounds = []float64{1, 10, 60, 600, 3600, 21600, 86400, 259200, 864000}

func newCorrelatorMetrics(reg *telemetry.Registry) correlatorMetrics {
	unsolicited := reg.CounterVec("correlate_unsolicited_total", "captures classified unsolicited, by rule", "rule")
	return correlatorMetrics{
		captures:       reg.Counter("correlate_captures_total", "honeypot captures processed by the correlator"),
		solicited:      reg.Counter("correlate_solicited_total", "captures explained by expected recursion"),
		unknownLabel:   reg.Counter("correlate_unknown_label_total", "captures whose label matches no sent decoy"),
		crcRejected:    reg.Counter("correlate_checksum_rejected_total", "identifier-shaped labels failing the CRC"),
		labelCollision: reg.Counter("correlate_label_collisions_total", "send-log records dropped because their label was already live"),
		unsolicited:    unsolicited,
		rule1:          unsolicited.With("1"),
		rule2:          unsolicited.With("2"),
		rule3:          unsolicited.With("3"),
		delay:          reg.Histogram("correlate_delay_seconds", "interval between decoy emission and unsolicited re-use", delayBounds),
	}
}

// Stats summarizes correlation outcomes.
type Stats struct {
	SentDecoys       int64
	Captures         int64
	UnknownLabel     int64 // captures whose label matches no sent decoy
	Solicited        int64 // first DNS appearance of a DNS decoy
	Unsolicited      int64
	ChecksumRejected int64 // identifier-shaped labels failing the CRC
	LabelCollisions  int64 // send records dropped because the label was already live
}

// New creates a correlator sharing the experiment's identifier codec.
// Metrics land in a private telemetry set; call Bind to share one.
func New(codec *identifier.Codec) *Correlator {
	return &Correlator{
		codec: codec,
		log:   newSendLog(codec),
		m:     newCorrelatorMetrics(telemetry.NewRegistry()),
	}
}

// Bind re-homes the correlator's metrics in the given shared set.
// Call before classification; counts recorded earlier stay in the
// private registry.
func (c *Correlator) Bind(set *telemetry.Set) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = newCorrelatorMetrics(set.Registry)
}

// AddSent records one decoy emission. The identifier nonce is a uint16,
// so at campaign scale two live decoys can share a label; the first
// record wins — replacing it would misattribute every later capture of
// the older decoy to the newer emission. The log keeps a copy of s's
// fields, not s itself.
//
// s.Label must be the identifier label the correlator's codec encodes for
// s's send second, VP and TTL, and s.Domain must start with it; AddSent
// panics otherwise (a duplicate is dropped before that check).
func (c *Correlator) AddSent(s *Sent) {
	id, err := c.codec.Decode(s.Label)
	if err != nil {
		panic(fmt.Sprintf("correlate: send record label %q: %v", s.Label, err))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.log.find(id, s.Label); dup {
		c.stats.LabelCollisions++
		c.m.labelCollision.Inc()
		return
	}
	c.log.add(id, s)
	c.stats.SentDecoys++
}

// SentByLabel looks up the send record for a label. For a decoy that has
// leaked it returns the record its Unsolicited events share; otherwise it
// builds a fresh one.
func (c *Correlator) SentByLabel(label string) (*Sent, bool) {
	id, err := c.codec.Decode(label)
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.log.find(id, label)
	if !ok {
		return nil, false
	}
	if s, ok := c.log.leaked[i]; ok {
		return s, true
	}
	return c.log.build(i), true
}

// Stats snapshots the counters.
func (c *Correlator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Classify processes captures in timestamp order and returns the
// unsolicited ones. It may be called once with the full log or
// incrementally with batches; rule iii state (first-DNS-appearance) is
// retained across calls.
func (c *Correlator) Classify(captures []honeypot.Capture) []Unsolicited {
	return c.ClassifyChunks([][]honeypot.Capture{captures})
}

// ClassifyChunks is Classify over the concatenation of chunks, read in
// place: honeypot.Log.ChunksFrom's views classify without copying the
// log. It returns exactly what Classify of the concatenated captures
// would.
func (c *Correlator) ClassifyChunks(chunks [][]honeypot.Capture) []Unsolicited {
	// Honeypot logs are appended in virtual-time order, so the captures
	// are almost always already sorted — skip the defensive copy then.
	total := 0
	sorted := true
	var prev time.Time
	for _, ch := range chunks {
		for i := range ch {
			if total+i > 0 && ch[i].Time.Before(prev) {
				sorted = false
			}
			prev = ch[i].Time
		}
		total += len(ch)
	}
	if !sorted {
		ordered := make([]honeypot.Capture, 0, total)
		for _, ch := range chunks {
			ordered = append(ordered, ch...)
		}
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Time.Before(ordered[j].Time) })
		chunks = [][]honeypot.Capture{ordered}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Unsolicited, 0, total)
	for _, ch := range chunks {
		for i := range ch {
			out = c.classify(&ch[i], out)
		}
	}
	return out
}

// classify applies the three rules to one capture, appending it to out
// when it is unsolicited. c.mu must be held.
func (c *Correlator) classify(cap *honeypot.Capture, out []Unsolicited) []Unsolicited {
	c.stats.Captures++
	c.m.captures.Inc()
	if cap.Label == "" {
		c.stats.UnknownLabel++
		c.m.unknownLabel.Inc()
		return out
	}
	id, err := c.codec.Decode(cap.Label)
	if err != nil {
		c.stats.ChecksumRejected++
		c.m.crcRejected.Inc()
		return out
	}
	i, ok := c.log.find(id, cap.Label)
	if !ok {
		c.stats.UnknownLabel++
		c.m.unknownLabel.Inc()
		return out
	}
	r := c.log.rec(i)
	k := &c.log.kinds[r.kind]
	sentProto := k.proto

	rule := 0
	switch {
	case cap.Protocol == decoy.HTTP || cap.Protocol == decoy.TLS:
		rule = 2
	case cap.Protocol != sentProto:
		rule = 1
	case cap.Protocol == decoy.DNS:
		if !k.expectRecursion || r.dnsSeen {
			rule = 3
		}
		r.dnsSeen = true
	}
	if rule == 0 {
		c.stats.Solicited++
		c.m.solicited.Inc()
		return out
	}
	c.stats.Unsolicited++
	switch rule {
	case 1:
		c.m.rule1.Inc()
	case 2:
		c.m.rule2.Inc()
	case 3:
		c.m.rule3.Inc()
	}
	sent := c.log.leak(i)
	delay := cap.Time.Sub(sent.Time)
	c.m.delay.Observe(delay.Seconds())
	return append(out, Unsolicited{
		Capture:     *cap,
		Sent:        sent,
		Delay:       delay,
		Combination: combination(sentProto, cap.Protocol),
		Rule:        rule,
	})
}

// combinations precomputes every Decoy-Request label so classification
// never formats strings; TLS arrivals at the web honeypot are "HTTPS" in
// the paper's terminology.
var combinations = [3][3]string{
	decoy.DNS:  {decoy.DNS: "DNS-DNS", decoy.HTTP: "DNS-HTTP", decoy.TLS: "DNS-HTTPS"},
	decoy.HTTP: {decoy.DNS: "HTTP-DNS", decoy.HTTP: "HTTP-HTTP", decoy.TLS: "HTTP-HTTPS"},
	decoy.TLS:  {decoy.DNS: "TLS-DNS", decoy.HTTP: "TLS-HTTP", decoy.TLS: "TLS-HTTPS"},
}

// combination renders the paper's Decoy-Request label, e.g. "DNS-HTTP".
func combination(sent, req decoy.Protocol) string {
	if sent >= 0 && int(sent) < len(combinations) && req >= 0 && int(req) < len(combinations[sent]) {
		return combinations[sent][req]
	}
	name := req.String()
	if req == decoy.TLS {
		name = "HTTPS"
	}
	return fmt.Sprintf("%s-%s", sent, name)
}

// LeakedLabels extracts the set of decoy labels that triggered unsolicited
// requests — the evidence traceroute.Analyze consumes.
func LeakedLabels(events []Unsolicited) map[string]bool {
	out := make(map[string]bool, len(events))
	for _, u := range events {
		out[u.Sent.Label] = true
	}
	return out
}

// PerDecoyCounts tallies unsolicited requests per decoy label, optionally
// restricted to those arriving at least minDelay after emission (the §5.1
// multi-use analysis uses minDelay = 1h).
func PerDecoyCounts(events []Unsolicited, minDelay time.Duration) map[string]int {
	out := make(map[string]int)
	for _, u := range events {
		if u.Delay >= minDelay {
			out[u.Sent.Label]++
		}
	}
	return out
}
