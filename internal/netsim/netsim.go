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
// runs in milliseconds of wall-clock time. The queue is a 4-ary min-heap
// of value entries that carry each event's (time, sequence) key inline, so
// sifts compare integers without dereferencing events. All execution is
// single goroutine and fully deterministic for a given seed and call order.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
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
// its router. Taps must not mutate the packet; they may call back into the
// Network to schedule their own traffic (that is what a traffic-shadowing
// exhibitor does).
type Tap interface {
	Observe(net *Network, at *Router, pkt *wire.Packet)
}

// Handler terminates packets at a host address (resolver, web server,
// honeypot, vantage point...). The packet's transport payload has already
// been decoded by the network's parser.
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
	// Arena, when non-nil, seeds the event/flight pools from a previous
	// world's harvest (see Arena). Purely an allocation amortization: a
	// world behaves identically with or without one.
	Arena *Arena
}

// DefaultHopLatency approximates a wide-area per-hop delay.
const DefaultHopLatency = 8 * time.Millisecond

// Network is the simulator instance.
type Network struct {
	now    time.Time
	nowNS  int64 // now.UnixNano(), kept in step with now
	events eventHeap
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
	// objects. The worker-pool campaign runner hammers this path with one
	// world per goroutine; pooling keeps the steady state allocation-free.
	freeEvents  []*event
	freeFlights []*flight

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

// RemoveHost deregisters an address.
func (n *Network) RemoveHost(addr wire.Addr) {
	delete(n.hosts, addr)
}

// HasHost reports whether addr terminates at a registered handler.
func (n *Network) HasHost(addr wire.Addr) bool {
	_, ok := n.hosts[addr]
	return ok
}

// Schedule runs fn after delay of virtual time. A negative delay runs at
// the current instant (still via the queue, preserving causal order).
func (n *Network) Schedule(delay time.Duration, fn func()) {
	e := n.newEvent()
	e.fn = fn
	n.scheduleEvent(delay, e)
}

// scheduleEvent pushes a prepared event onto the queue.
func (n *Network) scheduleEvent(delay time.Duration, e *event) {
	if delay < 0 {
		delay = 0
	}
	n.seq++
	n.events.push(heapEntry{atNS: n.nowNS + int64(delay), seq: n.seq, e: e})
	n.m.eventsScheduled.Inc()
	n.m.queuePeak.SetMax(int64(len(n.events)))
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
	e.udpHost, e.udpW = nil, nil
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

// releaseFlight drops a flight's buffer references and pools the struct.
// The packet buffer itself is never reused: honeypot captures and decoded
// payloads may alias it for the rest of the run.
func (n *Network) releaseFlight(f *flight) {
	f.pkt, f.path = nil, nil
	n.freeFlights = append(n.freeFlights, f)
}

// Arena carries a Network's recyclable scratch — the event and flight free
// lists plus the drained event-heap backing array — across Network
// lifetimes. A campaign worker running many single-trial worlds in
// sequence attaches one arena to each world in turn, so the event loop's
// steady-state pool is grown once per worker instead of once per trial.
// Pooled objects are fully re-initialized on acquisition and hold no
// references after release, so reuse cannot leak state between worlds. An
// arena belongs to one goroutine at a time; hand-off between worlds must
// be externally ordered (the runner keeps one per worker).
type Arena struct {
	events      []*event
	flights     []*flight
	heapBacking eventHeap
}

// attach seeds n's pools from the arena, leaving the arena empty. New
// calls it before any event is scheduled.
func (a *Arena) attach(n *Network) {
	n.freeEvents, a.events = a.events, nil
	n.freeFlights, a.flights = a.flights, nil
	if cap(a.heapBacking) > 0 {
		n.events, a.heapBacking = a.heapBacking[:0], nil
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
	if len(n.events) == 0 {
		a.heapBacking, n.events = n.events[:0], nil
	}
}

// SendPacket injects a serialized IPv4 packet at its source address. The
// packet traverses the path to its destination hop by hop; taps observe it
// at every router it reaches; TTL expiry produces ICMP Time Exceeded back
// to the source. Errors are returned only for unparseable packets —
// routing failures are counted in Stats, as on the real Internet the
// sender learns nothing synchronously.
func (n *Network) SendPacket(raw []byte) error {
	// Copy: the caller may reuse its buffer, and routers mutate TTL.
	return n.SendPacketOwned(append([]byte(nil), raw...))
}

// SendPacketOwned is SendPacket for buffers the caller hands over: the
// network takes ownership of raw (routers mutate its TTL in place, and
// captures may alias it for the rest of the run), so the caller must not
// touch the buffer afterwards. Freshly built packets take this path to
// skip SendPacket's defensive copy.
func (n *Network) SendPacketOwned(raw []byte) error {
	var probe wire.IPv4
	if err := probe.DecodeFromBytes(raw); err != nil {
		return fmt.Errorf("netsim: refusing to send unparseable packet: %w", err)
	}
	n.stats.PacketsSent++
	n.m.packetsSent.Inc()
	src, dst := probe.Src, probe.Dst

	var path []*Router
	if n.pathFn != nil {
		path = n.pathFn(src, dst)
		if path == nil && src != dst {
			// No route at all (distinct from the empty direct path). This
			// holds even when dst is a registered host: delivering hop-free
			// would bypass every tap and the topology's own verdict.
			n.stats.NoRoute++
			n.m.noRoute.Inc()
			return nil
		}
	}
	n.forward(n.newFlight(raw, src, path))
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

// InjectOwned is Inject without the defensive copy: ownership of raw
// transfers to the network. Use it when the buffer was freshly built for
// this exact send.
func (n *Network) InjectOwned(raw []byte) {
	if err := n.SendPacketOwned(raw); err != nil {
		panic(err)
	}
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
	// the expired packet only until BuildICMP copies it, so the intermediate
	// copy wire.NewTimeExceeded would make is unnecessary here.
	quote := expired
	if len(quote) > wire.TimeExceededQuoteLen {
		quote = quote[:wire.TimeExceededQuoteLen]
	}
	te := wire.ICMP{Type: wire.ICMPTimeExceeded}
	raw, err := wire.BuildICMP(r.Addr, origin, 64, 0, &te, quote)
	if err != nil {
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
	uh, uw, ugen := e.udpHost, e.udpW, e.udpGen
	n.releaseEvent(e)
	if f != nil {
		n.stepFlight(f)
		return
	}
	if uw != nil {
		uh.udpTimeout(n, uw, ugen)
		return
	}
	fn()
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
// (truncated). It returns the number of events processed.
func (n *Network) drain(limitNS int64) (processed int64, truncated bool) {
	for len(n.events) > 0 && n.events[0].atNS <= limitNS {
		next := n.events.pop()
		if next.atNS > n.nowNS {
			n.now = n.now.Add(time.Duration(next.atNS - n.nowNS))
			n.nowNS = next.atNS
		}
		n.m.queueDepth.Observe(float64(len(n.events) + 1))
		n.dispatch(next.e)
		processed++
		n.stats.Events++
		n.m.eventsDispatched.Inc()
		n.tele.Progress.Tick(n.now, len(n.events))
		if n.maxEvents > 0 && n.stats.Events >= n.maxEvents {
			return processed, true
		}
	}
	return processed, false
}

// Pending reports the number of queued events.
func (n *Network) Pending() int { return len(n.events) }

// event is one queued occurrence: a generic callback (fn), a packet-flight
// step (flight), or a typed UDP request timeout (udpW). Exactly one of the
// three is set. The typed timeout exists because SendUDPRequest fires on
// every probe: carrying the waiter and its generation in plain fields
// costs nothing, where the equivalent closure allocated once per request.
// Events are pooled by the Network; they live only between scheduleEvent
// and dispatch. Their dispatch key lives in the queue entry, not here.
type event struct {
	fn     func()
	flight *flight

	udpHost *Host
	udpW    *udpWaiter
	udpGen  uint64
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
