// Package netsim is a deterministic, discrete-event IPv4 network simulator:
// the stand-in for the real Internet that shadowmeter's measurement
// pipeline runs against.
//
// The simulator moves real serialized packets (internal/wire) across
// router paths with per-hop TTL decrement and ICMP Time Exceeded
// generation, which is exactly the substrate the paper's Phase II
// hop-by-hop traceroute needs. On-path devices attach to routers as Taps
// and see the same bytes a DPI middlebox would.
//
// Time is virtual: an event queue advances a simulated clock, so
// a two-month measurement campaign with multi-day data-retention delays
// runs in milliseconds of wall-clock time. The queue has two lanes of value
// entries that carry each event's (time, sequence) key inline. Every hop
// and delivery is scheduled exactly one hop latency ahead; since virtual
// time never decreases and sequence numbers only grow, those entries
// arrive already sorted and wait in a FIFO ring, the hop lane. All other
// events go to a 4-ary min-heap. The loop dispatches whichever lane head
// comes first, and merging sorted sources always yields the least key,
// so the order is the same as one queue's. A third sorted source, the
// series, holds a block of numbered events scheduled up front (a
// campaign's whole decoy schedule) as 16-byte keys instead of closures.
// All execution is single goroutine and fully deterministic for a given
// seed and call order.
//
// Packet ownership: every injected packet is built into a buffer from the
// Network's pool (see bufPool). It is written only while it is built and,
// in flight, by the per-hop TTL rewrite, and it returns to the pool where
// the packet dies: after its delivery's handler returns, or when a router
// drops it. Taps, handlers and callbacks therefore see the packet's own
// bytes, not a copy (see UDPService), but only for the duration of their
// call: whatever they keep past it they must copy.
package netsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/wire"
)

// Router is one forwarding hop. Routers decrement TTL, generate ICMP Time
// Exceeded when it expires, and expose attached Taps to every packet that
// arrives on their wire.
type Router struct {
	// Name is drawn from the fixed set minted at topology build time, so
	// it is a safe (bounded-cardinality) metric label.
	//
	//shadowlint:bounded
	Name string
	// Addr is the interface address exposed in ICMP error messages. A
	// router with ICMPSilent set never answers, modeling the hops that make
	// real traceroutes incomplete (Section 3 "Comparison and limitations").
	Addr       wire.Addr
	ICMPSilent bool

	taps []Tap
}

// AttachTap registers an on-path device at this router.
func (r *Router) AttachTap(t Tap) { r.taps = append(r.taps, t) }

// Taps returns a copy of the attached taps. Callers get their own slice:
// appending to (or reordering) the result cannot mutate routing state
// behind the simulator's back.
func (r *Router) Taps() []Tap { return append([]Tap(nil), r.taps...) }

// Tap is an on-path observer device: it inspects every packet arriving at
// its router. Taps must not mutate the packet, and pkt and the bytes it
// points into are valid only for the call; they may call back into the
// Network to schedule their own traffic (that is what a traffic-shadowing
// exhibitor does).
type Tap interface {
	Observe(net *Network, at *Router, pkt *wire.Packet)
}

// Handler terminates packets at a host address (resolver, web server,
// honeypot, vantage point...). The packet's transport payload has already
// been decoded by the network's parser; pkt and the bytes it points into
// are valid only for the call.
type Handler interface {
	Handle(net *Network, pkt *wire.Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(net *Network, pkt *wire.Packet)

// Handle implements Handler.
func (f HandlerFunc) Handle(net *Network, pkt *wire.Packet) { f(net, pkt) }

// PathFunc returns the ordered router hops between two addresses, or nil if
// no route exists. It must be deterministic.
type PathFunc func(src, dst wire.Addr) []*Router

// Stats counts simulator activity.
type Stats struct {
	PacketsSent      int64
	PacketsDelivered int64
	PacketsLost      int64
	TTLExpired       int64
	ICMPSent         int64
	NoRoute          int64
	NoHandler        int64
	Events           int64
}

// Config parameterizes a Network.
type Config struct {
	// Start is the virtual-clock origin.
	Start time.Time
	// HopLatency is the one-way latency contributed by each router hop.
	// Zero selects DefaultHopLatency.
	HopLatency time.Duration
	// Path supplies routes. Nil means every src/dst pair is directly
	// connected (useful in unit tests).
	Path PathFunc
	// LossRate drops each packet independently at every hop with this
	// probability (failure injection; deterministic for a given LossSeed
	// and call order). 0 disables loss.
	LossRate float64
	// LossSeed seeds the loss coin.
	LossSeed int64
	// Telemetry receives the simulator's metrics and progress ticks. Nil
	// creates a private set, so the hot path never nil-checks.
	Telemetry *telemetry.Set
	// Arena, when non-nil, seeds the event, flight and packet-buffer
	// pools from a previous world's harvest (see Arena). Purely an
	// allocation amortization: a world behaves identically with or without
	// one.
	Arena *Arena
}

// DefaultHopLatency approximates a wide-area per-hop delay.
const DefaultHopLatency = 8 * time.Millisecond

// Network is the simulator instance.
type Network struct {
	now    time.Time
	nowNS  int64 // now.UnixNano(), kept in step with now
	events eventHeap
	lane   hopLane // entries scheduled exactly hopLatency ahead
	series series  // numbered events scheduled as one block
	seq    int64

	hosts      map[wire.Addr]Handler
	pathFn     PathFunc
	hopLatency time.Duration
	lossRate   float64
	lossRNG    *rand.Rand

	stats  Stats
	parser wire.Parser
	// scratch is the single decode target for tap observation and
	// delivery. Taps and handlers receive &scratch and must not retain it
	// past their callback: the next dispatched packet overwrites it (the
	// same contract the shared parser's transport storage already set).
	scratch wire.Packet

	tele        *telemetry.Set
	m           netMetrics
	tapObserves map[*Router]*telemetry.Counter

	// freeEvents and freeFlights recycle the event-loop's two per-hop
	// objects, and bufs the packet buffers. The worker-pool campaign runner
	// hammers this path with one world per goroutine; pooling keeps the
	// steady state allocation-free.
	freeEvents  []*event
	freeFlights []*flight
	bufs        bufPool

	maxEvents int64 // safety valve against runaway schedules; 0 = unlimited
}

// netMetrics holds the simulator's registered metric handles. They are
// plain (lock-free) variants: the event loop is single-goroutine.
type netMetrics struct {
	eventsScheduled  *telemetry.Counter
	eventsDispatched *telemetry.Counter
	queuePeak        *telemetry.Gauge
	queueDepth       *telemetry.Histogram
	packetsSent      *telemetry.Counter
	packetsForwarded *telemetry.Counter
	packetsDelivered *telemetry.Counter
	packetsLost      *telemetry.Counter
	ttlExpired       *telemetry.Counter
	icmpSent         *telemetry.Counter
	noRoute          *telemetry.Counter
	noHandler        *telemetry.Counter
	taps             *telemetry.CounterVec
}

// queueDepthBounds buckets event-queue depth by powers of four: deep
// enough to see full-scale campaigns, cheap enough to scan per event.
var queueDepthBounds = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

func newNetMetrics(reg *telemetry.Registry) netMetrics {
	return netMetrics{
		eventsScheduled:  reg.Counter("netsim_events_scheduled_total", "events pushed onto the simulator heap"),
		eventsDispatched: reg.Counter("netsim_events_dispatched_total", "events popped and executed by the event loop"),
		queuePeak:        reg.Gauge("netsim_event_queue_peak", "high-water mark of the event-queue depth"),
		queueDepth:       reg.Histogram("netsim_event_queue_depth", "event-queue depth observed at each dispatch", queueDepthBounds),
		packetsSent:      reg.Counter("netsim_packets_sent_total", "packets injected at their source"),
		packetsForwarded: reg.Counter("netsim_packets_forwarded_total", "per-hop packet arrivals at routers"),
		packetsDelivered: reg.Counter("netsim_packets_delivered_total", "packets terminated at a registered handler"),
		packetsLost:      reg.Counter("netsim_packets_lost_total", "packets dropped by injected per-hop loss"),
		ttlExpired:       reg.Counter("netsim_ttl_expired_total", "packets whose TTL reached zero at a router"),
		icmpSent:         reg.Counter("netsim_icmp_time_exceeded_total", "ICMP Time Exceeded messages generated"),
		noRoute:          reg.Counter("netsim_no_route_total", "sends with no path to the destination"),
		noHandler:        reg.Counter("netsim_no_handler_total", "deliveries to an unregistered address"),
		taps:             reg.CounterVec("netsim_tap_observes_total", "packets shown to on-path taps, per router", "router"),
	}
}

// New creates a network from cfg.
func New(cfg Config) *Network {
	hl := cfg.HopLatency
	if hl == 0 {
		hl = DefaultHopLatency
	}
	tele := cfg.Telemetry
	if tele == nil {
		tele = telemetry.NewSet()
	}
	n := &Network{
		now:         cfg.Start,
		nowNS:       cfg.Start.UnixNano(),
		hosts:       make(map[wire.Addr]Handler),
		pathFn:      cfg.Path,
		hopLatency:  hl,
		lossRate:    cfg.LossRate,
		tele:        tele,
		m:           newNetMetrics(tele.Registry),
		tapObserves: make(map[*Router]*telemetry.Counter),
	}
	if tele.Tracer.Clock == nil {
		tele.Tracer.Clock = n.Now
	}
	if cfg.LossRate > 0 {
		n.lossRNG = rand.New(rand.NewSource(cfg.LossSeed))
	}
	if cfg.Arena != nil {
		cfg.Arena.attach(n)
	}
	return n
}

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.now }

// Telemetry returns the simulator's telemetry set (the one from Config,
// or the private set created when none was supplied).
func (n *Network) Telemetry() *telemetry.Set { return n.tele }

// Stats returns a snapshot of simulator counters.
func (n *Network) Stats() Stats { return n.stats }

// SetMaxEvents bounds total processed events (0 disables the bound).
func (n *Network) SetMaxEvents(max int64) { n.maxEvents = max }

// AddHost registers handler as the terminator for addr. Registering an
// address twice replaces the handler.
func (n *Network) AddHost(addr wire.Addr, h Handler) {
	n.hosts[addr] = h
}

// Schedule runs fn after delay of virtual time. A negative delay runs at
// the current instant (still via the queue, preserving causal order).
func (n *Network) Schedule(delay time.Duration, fn func()) {
	e := n.newEvent()
	e.fn = fn
	n.scheduleEvent(delay, e)
}

// ScheduleSeries queues count numbered events in one compact block:
// event i runs run(i) after delay(i) of virtual time. It is equivalent to
// calling Schedule(delay(i), func() { run(i) }) for i = 0, 1, ...,
// count-1 in that order — delay is called in that order, each event takes
// the next sequence number, and the events count in Pending and the
// queue metrics exactly as those calls' would — but each event costs 16
// bytes of queue instead of a closure and a queue entry. Only one series
// may be pending at a time.
func (n *Network) ScheduleSeries(count int, delay func(i int) time.Duration, run func(i int)) {
	if count <= 0 {
		return
	}
	if n.series.pending() > 0 {
		panic("netsim: ScheduleSeries while an earlier series is pending")
	}
	keys := make([]seriesKey, count)
	base := n.seq + 1
	for i := range keys {
		d := delay(i)
		if d < 0 {
			d = 0
		}
		n.seq++
		keys[i] = seriesKey{atNS: n.nowNS + int64(d), seq: n.seq}
	}
	slices.SortFunc(keys, func(a, b seriesKey) int {
		if c := cmp.Compare(a.atNS, b.atNS); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	n.series = series{keys: keys, base: base, run: run}
	n.m.eventsScheduled.Add(int64(count))
	n.m.queuePeak.SetMax(int64(n.Pending()))
}

// scheduleEvent queues a prepared event: in the hop lane when it lands
// exactly one hop latency ahead, in the heap otherwise.
func (n *Network) scheduleEvent(delay time.Duration, e *event) {
	if delay < 0 {
		delay = 0
	}
	n.seq++
	x := heapEntry{atNS: n.nowNS + int64(delay), seq: n.seq, e: e}
	if delay == n.hopLatency {
		n.lane.push(x)
	} else {
		n.events.push(x)
	}
	n.m.eventsScheduled.Inc()
	n.m.queuePeak.SetMax(int64(n.Pending()))
}

// newEvent takes an event from the pool (or allocates the pool's next).
func (n *Network) newEvent() *event {
	if k := len(n.freeEvents); k > 0 {
		e := n.freeEvents[k-1]
		n.freeEvents = n.freeEvents[:k-1]
		return e
	}
	return &event{}
}

// releaseEvent clears an event's references and returns it to the pool.
func (n *Network) releaseEvent(e *event) {
	e.fn, e.flight = nil, nil
	e.host, e.udpW, e.tcpFlow = nil, nil, nil
	n.freeEvents = append(n.freeEvents, e)
}

// newFlight takes a packet-flight from the pool and arms it at hop 0.
func (n *Network) newFlight(pkt []byte, origin wire.Addr, path []*Router) *flight {
	var f *flight
	if k := len(n.freeFlights); k > 0 {
		f = n.freeFlights[k-1]
		n.freeFlights = n.freeFlights[:k-1]
	} else {
		f = &flight{}
	}
	f.pkt, f.origin, f.path, f.hop = pkt, origin, path, 0
	return f
}

// releaseFlight ends a flight: its packet buffer returns to the pool and
// the struct to its own.
func (n *Network) releaseFlight(f *flight) {
	n.bufs.put(f.pkt)
	f.pkt, f.path = nil, nil
	n.freeFlights = append(n.freeFlights, f)
}

// Arena carries a Network's recyclable scratch — the event, flight and
// packet-buffer free lists plus the drained heap and hop-lane backing
// arrays — across Network lifetimes. A campaign worker running many
// single-trial worlds in sequence attaches one arena to each world in
// turn, so the event loop's steady-state pool is grown once per worker
// instead of once per trial. Pooled objects are fully re-initialized on
// acquisition (a packet buffer by the build that overwrites every byte of
// it) and hold no references after release, so reuse cannot leak state
// between worlds. An arena belongs to one goroutine at a time; hand-off
// between worlds must be externally ordered (the runner keeps one per
// worker).
type Arena struct {
	events      []*event
	flights     []*flight
	bufs        bufPool
	heapBacking eventHeap
	laneBacking []heapEntry
}

// attach seeds n's pools from the arena, leaving the arena empty. New
// calls it before any event is scheduled.
func (a *Arena) attach(n *Network) {
	n.freeEvents, a.events = a.events, nil
	n.freeFlights, a.flights = a.flights, nil
	n.bufs, a.bufs = a.bufs, bufPool{}
	if cap(a.heapBacking) > 0 {
		n.events, a.heapBacking = a.heapBacking[:0], nil
	}
	if len(a.laneBacking) > 0 {
		n.lane, a.laneBacking = hopLane{ring: a.laneBacking}, nil
	}
}

// Harvest reclaims n's pools into the arena once the world has drained
// (every event dispatched, every flight landed). The Network must not be
// run again afterwards. Undispatched events left behind by a truncated
// run stay with the Network — only the released free lists move — so
// harvesting a truncated world is safe, just less fruitful.
func (a *Arena) Harvest(n *Network) {
	if a == nil || n == nil {
		return
	}
	a.events, n.freeEvents = n.freeEvents, nil
	a.flights, n.freeFlights = n.freeFlights, nil
	a.bufs, n.bufs = n.bufs, bufPool{}
	if len(n.events) == 0 {
		a.heapBacking, n.events = n.events[:0], nil
	}
	if n.lane.n == 0 {
		a.laneBacking, n.lane = n.lane.ring, hopLane{}
	}
}

// SendPacket injects a serialized IPv4 packet at its source address. The
// packet traverses the path to its destination hop by hop; taps observe it
// at every router it reaches; TTL expiry produces ICMP Time Exceeded back
// to the source. Errors are returned only for unparseable packets —
// routing failures are counted in Stats, as on the real Internet the
// sender learns nothing synchronously. The network sends a copy of raw,
// so the caller keeps its buffer.
func (n *Network) SendPacket(raw []byte) error {
	var probe wire.IPv4
	if err := probe.DecodeFromBytes(raw); err != nil {
		return fmt.Errorf("netsim: refusing to send unparseable packet: %w", err)
	}
	buf := n.bufs.get(len(raw))
	copy(buf, raw)
	n.send(buf, probe.Src, probe.Dst)
	return nil
}

// Inject sends a packet that was just produced by a successful
// Serialize/BuildUDP call. SendPacket's only error is an unparseable
// buffer, which at an Inject call site is a construction bug — panic
// loudly instead of dropping the packet silently.
func (n *Network) Inject(raw []byte) {
	if err := n.SendPacket(raw); err != nil {
		panic(err)
	}
}

// InjectUDP builds an IPv4/UDP packet (wire.BuildUDP) straight into a
// pooled buffer and sends it. A payload too large for one datagram sends
// nothing, as an oversized send on a real host fails without a packet.
func (n *Network) InjectUDP(src, dst wire.Endpoint, ttl uint8, id uint16, payload []byte) {
	buf := n.bufs.get(wire.UDPPacketLen(len(payload)))
	if _, err := wire.BuildUDPInto(buf, src, dst, ttl, id, payload); err != nil {
		n.bufs.put(buf)
		return
	}
	n.send(buf, src.Addr, dst.Addr)
}

// InjectTCP is InjectUDP for a TCP segment (wire.BuildTCP).
func (n *Network) InjectTCP(src, dst wire.Endpoint, ttl uint8, id uint16, flags uint8, seq, ack uint32, payload []byte) {
	buf := n.bufs.get(wire.TCPPacketLen(len(payload)))
	if _, err := wire.BuildTCPInto(buf, src, dst, ttl, id, flags, seq, ack, payload); err != nil {
		n.bufs.put(buf)
		return
	}
	n.send(buf, src.Addr, dst.Addr)
}

// send starts a pooled packet from src to dst on its path; the packet
// owns buf from here on.
func (n *Network) send(buf []byte, src, dst wire.Addr) {
	n.stats.PacketsSent++
	n.m.packetsSent.Inc()
	var path []*Router
	if n.pathFn != nil {
		path = n.pathFn(src, dst)
		if path == nil && src != dst {
			// No route at all (distinct from the empty direct path). This
			// holds even when dst is a registered host: delivering hop-free
			// would bypass every tap and the topology's own verdict.
			n.stats.NoRoute++
			n.m.noRoute.Inc()
			n.bufs.put(buf)
			return
		}
	}
	n.forward(n.newFlight(buf, src, path))
}

// flight is one packet in transit: the serialized bytes, the origin
// address (ICMP errors return there), the router path, and the next hop
// index. Flights replace the per-hop closure chain of the original event
// loop: one pooled struct rides the whole path, so forwarding a packet
// over k hops schedules k+1 events without allocating any of them in the
// steady state.
type flight struct {
	pkt    []byte
	origin wire.Addr
	path   []*Router
	hop    int // next hop index; len(path) means delivery
}

// forward schedules the flight's next arrival: hop f.hop of its path, or
// the destination when the path is exhausted.
//
//shadowlint:hotpath
func (n *Network) forward(f *flight) {
	e := n.newEvent()
	e.flight = f
	n.scheduleEvent(n.hopLatency, e)
}

// stepFlight dispatches one flight event.
func (n *Network) stepFlight(f *flight) {
	if f.hop < len(f.path) {
		n.arriveAtRouter(f)
		return
	}
	n.deliver(f.pkt)
	n.releaseFlight(f)
}

func (n *Network) arriveAtRouter(f *flight) {
	if n.lossRNG != nil && n.lossRNG.Float64() < n.lossRate {
		n.stats.PacketsLost++
		n.m.packetsLost.Inc()
		n.releaseFlight(f)
		return
	}
	r := f.path[f.hop]
	n.m.packetsForwarded.Inc()
	// DPI taps see the packet on arrival, before the TTL check: a device on
	// the wire observes bytes regardless of whether the router then drops
	// them. This is what makes Phase II's "first TTL that triggers
	// shadowing = observer hop" inference sound.
	if len(r.taps) > 0 {
		if err := n.parser.Decode(f.pkt, &n.scratch); err == nil {
			n.tapCounter(r).Add(int64(len(r.taps)))
			for _, t := range r.taps {
				t.Observe(n, r, &n.scratch)
			}
		}
	}
	ttl, err := wire.DecrementTTL(f.pkt)
	if err != nil {
		n.releaseFlight(f)
		return // malformed in flight; drop silently
	}
	if ttl == 0 {
		n.stats.TTLExpired++
		n.m.ttlExpired.Inc()
		if !r.ICMPSilent {
			n.sendTimeExceeded(r, f.origin, f.pkt, f.hop)
		}
		n.releaseFlight(f)
		return
	}
	f.hop++
	n.forward(f)
}

// tapCounter resolves (and caches) the per-router tap-observation
// counter, labeled by router name.
func (n *Network) tapCounter(r *Router) *telemetry.Counter {
	if c, ok := n.tapObserves[r]; ok {
		return c
	}
	c := n.m.taps.With(r.Name)
	n.tapObserves[r] = c
	return c
}

// sendTimeExceeded generates the ICMP error for a probe that expired at
// hop index hop of its path.
func (n *Network) sendTimeExceeded(r *Router, origin wire.Addr, expired []byte, hop int) {
	// Build the message directly into its packet buffer: the quote aliases
	// the expired packet, which the caller releases only after BuildICMPInto
	// has copied it, so the intermediate copy wire.NewTimeExceeded would
	// make is unnecessary here.
	quote := expired
	if len(quote) > wire.TimeExceededQuoteLen {
		quote = quote[:wire.TimeExceededQuoteLen]
	}
	te := wire.ICMP{Type: wire.ICMPTimeExceeded}
	raw := n.bufs.get(wire.ICMPPacketLen(len(quote)))
	if _, err := wire.BuildICMPInto(raw, r.Addr, origin, 64, 0, &te, quote); err != nil {
		n.bufs.put(raw)
		return
	}
	n.stats.ICMPSent++
	n.m.icmpSent.Inc()
	// The error message returns over the reverse path; the measurement only
	// needs its eventual arrival at the origin, so model the return trip as
	// a direct delayed delivery proportional to the forward distance: the
	// probe crossed hop+1 links to reach this router, and the error crosses
	// as many on the way back. Per-TTL traceroute RTTs therefore increase
	// with hop distance, as they do on the real Internet.
	f := n.newFlight(raw, r.Addr, nil)
	e := n.newEvent()
	e.flight = f
	n.scheduleEvent(time.Duration(hop+1)*n.hopLatency, e)
}

// deliver hands a packet that reached its destination to the host's
// handler. The caller releases the buffer once it returns.
func (n *Network) deliver(pkt []byte) {
	if err := n.parser.Decode(pkt, &n.scratch); err != nil {
		return
	}
	h, ok := n.hosts[n.scratch.IP.Dst]
	if !ok {
		n.stats.NoHandler++
		n.m.noHandler.Inc()
		return
	}
	n.stats.PacketsDelivered++
	n.m.packetsDelivered.Inc()
	h.Handle(n, &n.scratch)
}

// dispatch executes one popped event and recycles it. The event's payload
// is captured before release so a handler scheduling new work can reuse
// the pooled object immediately. It is the event-loop root: everything it
// reaches — flight hops, handler dispatch, scheduled closures — runs on
// the world's single event-loop goroutine.
//
//shadowlint:hotpath
//shadowlint:eventloop
func (n *Network) dispatch(e *event) {
	f, fn := e.flight, e.fn
	h, uw, fl, gen := e.host, e.udpW, e.tcpFlow, e.gen
	n.releaseEvent(e)
	switch {
	case f != nil:
		n.stepFlight(f)
	case uw != nil:
		h.udpTimeout(n, uw, gen)
	case fl != nil:
		h.tcpTimeout(n, fl, gen)
	default:
		fn()
	}
}

// Run processes events until the queue is empty or the virtual clock would
// pass deadline. It returns the number of events processed.
func (n *Network) Run(deadline time.Time) int64 {
	processed, truncated := n.drain(deadline.UnixNano())
	// Fast-forward to the deadline only when the queue genuinely drained to
	// it. A maxEvents break leaves unprocessed events behind; jumping the
	// clock past them would make a later run dispatch them with timestamps
	// in the past.
	if !truncated && deadline.After(n.now) {
		n.now, n.nowNS = deadline, deadline.UnixNano()
	}
	return processed
}

// RunUntilIdle drains the event queue completely.
func (n *Network) RunUntilIdle() int64 {
	processed, _ := n.drain(math.MaxInt64)
	return processed
}

// drain dispatches events in (time, sequence) order until the queue is
// empty, the next event lies after limitNS, or the maxEvents valve trips
// (truncated). It returns the number of events processed. Each step takes
// the earliest head of the series and the two lanes; all three are
// sorted, so that head is the least key in the whole queue.
func (n *Network) drain(limitNS int64) (processed int64, truncated bool) {
	for {
		var next heapEntry
		switch {
		case n.series.pending() > 0 && n.seriesLeads():
			k := n.series.keys[n.series.head]
			if k.atNS > limitNS {
				return processed, false
			}
			n.series.head++
			next = heapEntry{atNS: k.atNS, seq: k.seq}
		case n.lane.n > 0 && (len(n.events) == 0 || n.lane.ring[n.lane.head].before(&n.events[0])):
			if n.lane.ring[n.lane.head].atNS > limitNS {
				return processed, false
			}
			next = n.lane.pop()
		default:
			if len(n.events) == 0 || n.events[0].atNS > limitNS {
				return processed, false
			}
			next = n.events.pop()
		}
		if next.atNS > n.nowNS {
			n.now = n.now.Add(time.Duration(next.atNS - n.nowNS))
			n.nowNS = next.atNS
		}
		n.m.queueDepth.Observe(float64(n.Pending() + 1))
		if next.e != nil {
			n.dispatch(next.e)
		} else {
			n.dispatchSeries(next.seq)
		}
		processed++
		n.stats.Events++
		n.m.eventsDispatched.Inc()
		n.tele.Progress.Tick(n.now, n.Pending())
		if n.maxEvents > 0 && n.stats.Events >= n.maxEvents {
			return processed, true
		}
	}
}

// seriesLeads reports whether the series head dispatches ahead of both
// lane heads; the series must be non-empty.
func (n *Network) seriesLeads() bool {
	k := n.series.keys[n.series.head]
	x := heapEntry{atNS: k.atNS, seq: k.seq}
	return (n.lane.n == 0 || x.before(&n.lane.ring[n.lane.head])) &&
		(len(n.events) == 0 || x.before(&n.events[0]))
}

// dispatchSeries runs the series event with sequence number seq. Once the
// series is drained it is released before the event runs, so the event
// may schedule the next series.
//
//shadowlint:eventloop
func (n *Network) dispatchSeries(seq int64) {
	run, i := n.series.run, int(seq-n.series.base)
	if n.series.pending() == 0 {
		n.series = series{}
	}
	run(i)
}

// Pending reports the number of queued events in all three sources.
func (n *Network) Pending() int { return len(n.events) + n.lane.n + n.series.pending() }

// event is one queued occurrence: a generic callback (fn), a packet-flight
// step (flight), or a typed request timeout of host's UDP waiter (udpW) or
// TCP client flow (tcpFlow). Exactly one of the four is set. The typed
// timeouts exist because SendUDPRequest and SendTCPRequest fire on every
// probe and decoy: carrying the waiter or flow and its generation in plain
// fields costs nothing, where the equivalent closure allocated once per
// request.
// Events are pooled by the Network; they live only between scheduleEvent
// and dispatch. Their dispatch key lives in the queue entry, not here.
type event struct {
	fn     func()
	flight *flight

	host    *Host
	udpW    *udpWaiter
	tcpFlow *clientFlow
	gen     uint64
}

// heapEntry is one queued event with its dispatch key inline: the virtual
// instant in Unix nanoseconds and a FIFO tiebreak for simultaneous events.
// seq is unique per Network, so (atNS, seq) totally orders the queue.
type heapEntry struct {
	atNS int64
	seq  int64
	e    *event
}

// before reports whether a dispatches ahead of b.
func (a *heapEntry) before(b *heapEntry) bool {
	return a.atNS < b.atNS || (a.atNS == b.atNS && a.seq < b.seq)
}

// series is a block of numbered events (see ScheduleSeries): their keys,
// sorted by (atNS, seq), and one function that runs event i. Event i has
// sequence number base+i.
type series struct {
	keys []seriesKey
	head int // index of the next key to dispatch
	base int64
	run  func(i int)
}

// seriesKey is one series event's dispatch key.
type seriesKey struct {
	atNS int64
	seq  int64
}

// pending reports how many series events are still queued.
func (s *series) pending() int { return len(s.keys) - s.head }

// eventHeap is a 4-ary min-heap of entries ordered by (atNS, seq). Four
// children per node halve the tree depth of a binary heap, and the
// children of a node share a cache line or two, so a Phase II sweep's
// ~65k-deep queue pushes and pops in fewer, cheaper steps.
type eventHeap []heapEntry

// push adds x, sifting it up from the tail.
func (h *eventHeap) push(x heapEntry) {
	q := append(*h, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	*h = q
}

// pop removes and returns the minimum entry; the heap must be non-empty.
// The vacated tail slot is zeroed, so the backing array (which an Arena
// may carry to the next world) never pins a dispatched event.
func (h *eventHeap) pop() heapEntry {
	q := *h
	top := q[0]
	last := len(q) - 1
	x := q[last]
	q[last] = heapEntry{}
	q = q[:last]
	*h = q
	if last == 0 {
		return top
	}
	// Sift the old tail down from the root into the smallest child's place.
	i := 0
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		m := c
		for j, end := c+1, min(c+4, last); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = x
	return top
}

// hopLane is a FIFO ring of entries scheduled exactly one hop latency
// ahead. Each push carries the current virtual time plus the same delay
// and a larger seq than every entry before it, and virtual time never
// decreases, so the ring is sorted by (atNS, seq) without any sifting.
// len(ring) is zero or a power of two.
type hopLane struct {
	ring []heapEntry
	head int // index of the oldest entry
	n    int // entries queued
}

// push appends x at the tail, doubling the ring when it is full.
func (l *hopLane) push(x heapEntry) {
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = x
	l.n++
}

// pop removes and returns the oldest entry; the lane must be non-empty.
// The vacated slot is zeroed, as the heap's is, so a ring an Arena carries
// to the next world never pins a dispatched event.
func (l *hopLane) pop() heapEntry {
	x := l.ring[l.head]
	l.ring[l.head] = heapEntry{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return x
}

// grow moves the entries of a full ring, oldest first, into one twice as
// large.
func (l *hopLane) grow() {
	ring := make([]heapEntry, max(2*len(l.ring), 64))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}
