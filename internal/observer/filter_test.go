package observer

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/wire"
)

// referenceObserve is Device.Observe with its old order: sniff a domain
// from any decoy port first, then apply Watch, DstFilter, the client
// count and path sampling. Device.Observe must match it on every packet.
func referenceObserve(d *Device, n *netsim.Network, pkt *wire.Packet) {
	var dstPort uint16
	var payload []byte
	switch {
	case pkt.UDP != nil:
		dstPort, payload = pkt.UDP.DstPort, pkt.UDP.Payload()
	case pkt.TCP != nil:
		dstPort, payload = pkt.TCP.DstPort, pkt.TCP.Payload()
	default:
		return
	}
	if len(payload) == 0 {
		return
	}
	var proto decoy.Protocol
	switch dstPort {
	case 53:
		proto = decoy.DNS
	case 80:
		proto = decoy.HTTP
	case 443:
		proto = decoy.TLS
	default:
		return
	}
	domain, ok := decoy.ExtractDomain(proto, payload)
	if !ok {
		return
	}
	if d.Watch != nil && !d.Watch[proto] {
		return
	}
	if d.DstFilter != nil && !d.DstFilter[pkt.IP.Dst] {
		return
	}
	if d.classifySrc != nil && d.classifySrc(pkt.IP.Src) {
		d.mu.Lock()
		d.stats.ClientExtractions++
		d.mu.Unlock()
	}
	if d.PathFraction > 0 && d.PathFraction < 1 {
		ps := PathSampledExhibitor{Fraction: d.PathFraction, Salt: d.PathSalt}
		if !ps.sampled(pkt.IP.Src) {
			return
		}
	}
	d.ObserveDomain(n, domain)
}

// sentPacket is one packet a probe put on the wire.
type sentPacket struct {
	at       time.Time
	src, dst wire.Endpoint
	payload  string
}

// sendLog records every packet crossing its router.
type sendLog struct{ sent []sentPacket }

func (l *sendLog) Observe(n *netsim.Network, _ *netsim.Router, pkt *wire.Packet) {
	p := sentPacket{at: n.Now(), payload: string(pkt.TransportPayload())}
	f := pkt.Flow()
	p.src, p.dst = f.Src, f.Dst
	l.sent = append(l.sent, p)
}

// packet builds and parses one TCP or UDP packet.
func packet(t testing.TB, tcp bool, src, dst wire.Endpoint, payload []byte) *wire.Packet {
	t.Helper()
	var raw []byte
	var err error
	if tcp {
		raw, err = wire.BuildTCP(src, dst, 64, 1, wire.TCPPsh|wire.TCPAck, 1, 1, payload)
	} else {
		raw, err = wire.BuildUDP(src, dst, 64, 1, payload)
	}
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := wire.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// filterPackets builds the table's packets: every payload kind from each
// of 16 sources toward one destination.
func filterPackets(t testing.TB, dst wire.Addr) []*wire.Packet {
	t.Helper()
	epoch := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	g := decoy.NewGenerator("experiment.domain", epoch)
	vp := wire.AddrFrom(100, 64, 0, 1)
	gen := func(proto decoy.Protocol, port uint16) []byte {
		d, err := g.Generate(proto, epoch.Add(time.Hour), vp, wire.Endpoint{Addr: dst, Port: port}, 64)
		if err != nil {
			t.Fatal(err)
		}
		return d.Payload
	}
	dnsQuery, httpReq, tlsHello := gen(decoy.DNS, 53), gen(decoy.HTTP, 80), gen(decoy.TLS, 443)
	ech, err := g.GenerateECH(epoch.Add(time.Hour), vp, wire.Endpoint{Addr: dst, Port: 443}, 64)
	if err != nil {
		t.Fatal(err)
	}
	payloads := []struct {
		port  uint16
		tcp   bool
		bytes []byte
	}{
		{53, false, dnsQuery},
		{80, true, httpReq},
		{443, true, tlsHello},
		{443, true, ech.Payload},
		{8080, true, httpReq},                                // another port
		{80, true, dnsQuery},                                 // DNS bytes toward HTTP
		{53, false, nil},                                     // empty
		{53, false, dnsQuery[:len(dnsQuery)-3]},              // truncated DNS
		{443, true, []byte{0x16, 0x03, 0x01, 0xff, 0xff, 1}}, // malformed TLS
	}
	var pkts []*wire.Packet
	for _, p := range payloads {
		for i := byte(0); i < 16; i++ {
			src := wire.Endpoint{Addr: wire.AddrFrom(100, 64, i, 7+i), Port: 40000}
			pkts = append(pkts, packet(t, p.tcp, src, wire.Endpoint{Addr: dst, Port: p.port}, p.bytes))
		}
	}
	return pkts
}

// filterRun is one device on its own network with a log of what its
// probes send.
type filterRun struct {
	n   *netsim.Network
	dev *Device
	log *sendLog
}

func newFilterRun(p Profile, classify func(wire.Addr) bool) filterRun {
	log := &sendLog{}
	wireRouter := &netsim.Router{Name: "wire", Addr: wire.AddrFrom(10, 0, 0, 1)}
	wireRouter.AttachTap(log)
	n := netsim.New(netsim.Config{Start: t0, Path: func(src, dst wire.Addr) []*netsim.Router {
		return []*netsim.Router{wireRouter}
	}})
	origin := Origin{Host: netsim.NewHost(n, wire.AddrFrom(100, 64, 200, 9)), Resolver: wire.AddrFrom(8, 8, 8, 8)}
	// The tap's own router is off every path, so probes are not sniffed.
	dev := NewDevice(p, []Origin{origin}, 17, &netsim.Router{Name: "tap", Addr: wire.AddrFrom(10, 0, 0, 2)})
	if classify != nil {
		dev.SetSourceClassifier(classify)
	}
	return filterRun{n: n, dev: dev, log: log}
}

// TestObserveMatchesSniffFirst holds Device.Observe, which filters before
// it parses, to the old sniff-then-filter order over every combination of
// payload, Watch, DstFilter, PathFraction and source classifier: the two
// must count the same Stats and put the same probes on the wire.
func TestObserveMatchesSniffFirst(t *testing.T) {
	dst := wire.AddrFrom(77, 88, 8, 8)
	packets := filterPackets(t, dst)

	watches := []map[decoy.Protocol]bool{
		nil,
		{decoy.DNS: true},
		{decoy.HTTP: true},
		{decoy.TLS: true},
	}
	filters := []struct {
		name string
		set  map[wire.Addr]bool
	}{
		{"nil", nil},
		{"hit", map[wire.Addr]bool{dst: true}},
		{"miss", map[wire.Addr]bool{wire.AddrFrom(1, 1, 1, 1): true}},
	}
	classifiers := []struct {
		name string
		fn   func(wire.Addr) bool
	}{
		{"nil", nil},
		{"client", func(wire.Addr) bool { return true }},
		{"non-client", func(wire.Addr) bool { return false }},
		{"mixed", func(a wire.Addr) bool { return a[2]%2 == 0 }},
	}
	rules := []ProbeRule{
		{Kind: ProbeDNS, Prob: 1, Count: CountDist{Min: 1, Max: 2},
			Delay: DelayDist{Ranges: []DelayRange{{Min: time.Second, Max: time.Hour, Weight: 1}}}},
		{Kind: ProbeHTTP, Prob: 0.5, Count: CountDist{Min: 1, Max: 1},
			Delay: DelayDist{Ranges: []DelayRange{{Min: time.Minute, Max: 24 * time.Hour, Weight: 1}}}},
	}

	var total Stats
	var probes int
	for _, watch := range watches {
		for _, filter := range filters {
			for _, frac := range []float64{0, 0.35, 1} {
				for _, cl := range classifiers {
					name := fmt.Sprintf("watch=%v/dst=%s/frac=%v/classifier=%s", watch, filter.name, frac, cl.name)
					p := Profile{Name: "diff", Watch: watch, DstFilter: filter.set,
						PathFraction: frac, PathSalt: 0x5eed, SampleRate: 0.8, Rules: rules}
					got, want := newFilterRun(p, cl.fn), newFilterRun(p, cl.fn)
					for _, pkt := range packets {
						got.dev.Observe(got.n, got.dev.Router(), pkt)
						referenceObserve(want.dev, want.n, pkt)
					}
					got.n.RunUntilIdle()
					want.n.RunUntilIdle()
					if g, w := got.dev.Stats(), want.dev.Stats(); g != w {
						t.Errorf("%s: Stats = %+v, sniff-first = %+v", name, g, w)
					}
					if !reflect.DeepEqual(got.log.sent, want.log.sent) {
						t.Errorf("%s: probes differ: %d sent, sniff-first %d", name, len(got.log.sent), len(want.log.sent))
					}
					s := got.dev.Stats()
					total.Observed += s.Observed
					total.ProbesLaunched += s.ProbesLaunched
					total.ClientExtractions += s.ClientExtractions
					probes += len(got.log.sent)
				}
			}
		}
	}
	// The table must exercise every counter, or agreement proves nothing.
	if total.Observed == 0 || total.ProbesLaunched == 0 || total.ClientExtractions == 0 || probes == 0 {
		t.Fatalf("table exercised nothing: %+v, %d probe packets", total, probes)
	}
}

// filteredDevice returns an HTTP-only tap that samples 35% of paths, a DNS
// packet it does not watch, and an HTTP packet from a source it does not
// sample.
func filteredDevice(t testing.TB) (*netsim.Network, *Device, *wire.Packet, *wire.Packet) {
	t.Helper()
	dst := wire.AddrFrom(77, 88, 8, 8)
	run := newFilterRun(Profile{Name: "filtered", Watch: map[decoy.Protocol]bool{decoy.HTTP: true},
		PathFraction: 0.35, PathSalt: 0x5eed, Rules: []ProbeRule{{Kind: ProbeDNS, Prob: 1}}}, nil)
	ps := PathSampledExhibitor{Fraction: 0.35, Salt: 0x5eed}
	var src wire.Addr
	for i := byte(1); ; i++ {
		if src = wire.AddrFrom(100, 64, 0, i); !ps.sampled(src) {
			break
		}
	}
	q, err := dnswire.NewQuery(1, "a.www.experiment.domain", dnswire.TypeA).Encode()
	if err != nil {
		t.Fatal(err)
	}
	from := wire.Endpoint{Addr: src, Port: 40000}
	unwatched := packet(t, false, from, wire.Endpoint{Addr: dst, Port: 53}, q)
	req := []byte("GET / HTTP/1.1\r\nHost: b.www.experiment.domain\r\n\r\n")
	unsampled := packet(t, true, from, wire.Endpoint{Addr: dst, Port: 80}, req)
	return run.n, run.dev, unwatched, unsampled
}

// TestObserveFilteredAllocsZero checks that a packet the tap cannot record
// costs no allocation: its payload is never parsed.
func TestObserveFilteredAllocsZero(t *testing.T) {
	n, dev, unwatched, unsampled := filteredDevice(t)
	allocs := testing.AllocsPerRun(100, func() {
		dev.Observe(n, dev.Router(), unwatched)
		dev.Observe(n, dev.Router(), unsampled)
	})
	if allocs != 0 {
		t.Errorf("filtered Observe allocates %v per run, want 0", allocs)
	}
	if s := dev.Stats(); s != (Stats{}) {
		t.Errorf("filtered packets were recorded: %+v", s)
	}
}

// BenchmarkObserveFiltered is Device.Observe on the packets a tap mostly
// sees: one of a protocol it does not watch and one on a path it does not
// sample. scripts/check.sh gates it at 0 allocs/op.
func BenchmarkObserveFiltered(b *testing.B) {
	n, dev, unwatched, unsampled := filteredDevice(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev.Observe(n, dev.Router(), unwatched)
		dev.Observe(n, dev.Router(), unsampled)
	}
}
