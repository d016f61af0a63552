package core

import (
	"context"
	"runtime/pprof"
	"sort"
	"time"

	"shadowmeter/internal/analysis"
	"shadowmeter/internal/correlate"
	"shadowmeter/internal/decoy"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/pairresolver"
	"shadowmeter/internal/probe"
	"shadowmeter/internal/stats"
	"shadowmeter/internal/telemetry"
	"shadowmeter/internal/traceroute"
	"shadowmeter/internal/vantage"
	"shadowmeter/internal/wire"
)

// Experiment drives the two measurement phases over a built World and
// compiles the Report.
type Experiment struct {
	World      *World
	Correlator *correlate.Correlator
	Universe   *analysis.PathUniverse

	// dstTotals counts probed paths per destination name (DNS decoys).
	dstTotals map[string]int
	// dnsDecoysPerDst counts emitted DNS decoys per destination.
	dnsDecoysPerDst map[string]int

	engine        *traceroute.Engine
	sweeps        []*traceroute.Sweep
	SweepResults  []traceroute.Result
	resultsByPath map[correlate.PathKey]traceroute.Result

	EventsPhaseI  []correlate.Unsolicited
	EventsPhaseII []correlate.Unsolicited

	PairReport pairresolver.Report

	processedCaptures int
	sentCounts        map[decoy.Protocol]int64
	vpByAddr          map[wire.Addr]*vantage.VP
	decoysSent        map[decoy.Protocol]*telemetry.Counter
}

// NewExperiment prepares an experiment over a freshly built world.
func NewExperiment(cfg Config) *Experiment {
	w := BuildWorld(cfg)
	e := &Experiment{
		World:           w,
		Correlator:      correlate.New(w.Codec),
		Universe:        analysis.NewPathUniverse(),
		dstTotals:       make(map[string]int),
		dnsDecoysPerDst: make(map[string]int),
		engine:          traceroute.NewEngine(w.Gen),
		resultsByPath:   make(map[correlate.PathKey]traceroute.Result),
		sentCounts:      make(map[decoy.Protocol]int64),
		vpByAddr:        make(map[wire.Addr]*vantage.VP),
	}
	e.engine.MaxTTL = w.Cfg.TracerouteMaxTTL
	e.engine.Telemetry = w.Telemetry
	e.Correlator.Bind(w.Telemetry)
	sentVec := w.Telemetry.Registry.CounterVec("core_decoys_sent_total", "decoys recorded in the send log, by protocol", "protocol")
	e.decoysSent = map[decoy.Protocol]*telemetry.Counter{
		decoy.DNS:  sentVec.With("dns"),
		decoy.HTTP: sentVec.With("http"),
		decoy.TLS:  sentVec.With("tls"),
	}
	for _, vp := range w.Platform.VPs {
		e.vpByAddr[vp.Addr] = vp
	}
	return e
}

// Telemetry exposes the experiment's shared metrics/tracing set.
func (e *Experiment) Telemetry() *telemetry.Set { return e.World.Telemetry }

// phase brackets one pipeline stage: it labels the goroutine for CPU
// profiles (`go tool pprof` groups samples by phase), opens a tracer
// span stamped with virtual time, and tags progress updates.
func (e *Experiment) phase(name string, fn func()) {
	tele := e.World.Telemetry
	tele.Progress.SetPhase(name)
	span := tele.Tracer.Start("phase:" + name)
	pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) {
		fn()
	})
	span.End()
	tele.Progress.SetPhase("")
}

// ScreenPairResolvers runs the Appendix E pair-resolver screening,
// removing interception-affected VPs before any decoys are sent.
func (e *Experiment) ScreenPairResolvers() {
	e.phase("screen", func() {
		e.PairReport = pairresolver.Screen(e.World.Net, e.World.Platform, e.World.ResolverAddrs, 0)
		// Refresh the VP index after removals.
		e.vpByAddr = make(map[wire.Addr]*vantage.VP)
		for _, vp := range e.World.Platform.VPs {
			e.vpByAddr[vp.Addr] = vp
		}
	})
}

// vpCountry resolves a VP's country for Figure 3 grouping.
func (e *Experiment) vpCountry(vp *vantage.VP) string {
	if vp.Country != "" {
		return vp.Country
	}
	return e.World.Topo.Geo.Country(vp.Addr)
}

// RunPhaseI schedules and executes the landscape campaign: DNS decoys from
// every VP to all 36 DNS destinations, HTTP and TLS decoys to every web
// front-end, spread over the campaign duration under the 2-per-second
// per-target rate limit. It then drains the network (retention delays run
// for virtual days) and classifies the honeypot log.
func (e *Experiment) RunPhaseI() {
	e.phase("phase1", e.runPhaseI)
}

func (e *Experiment) runPhaseI() {
	w := e.World
	cfg := w.Cfg
	pacer := decoy.NewPacer(2)
	start := cfg.Start
	vps := w.Platform.VPs

	// Path universes (denominators for Figure 3).
	for _, vp := range vps {
		country := e.vpCountry(vp)
		e.Universe.VPCountry[vp.Addr] = country
		e.Universe.AddPaths(decoy.DNS, country, len(w.DNSDests))
		e.Universe.AddPaths(decoy.HTTP, country, len(w.Web.Sites))
		e.Universe.AddPaths(decoy.TLS, country, len(w.Web.Sites))
		for _, dst := range w.DNSDests {
			e.dstTotals[dst.Name]++
		}
	}

	// The whole decoy schedule is one netsim series: DNS decoys in rounds
	// spread across the campaign, then HTTP and TLS decoys toward the web
	// fleet. Event i is the i-th send of the nested loops below; the
	// series calls delay for i = 0, 1, ... in order, so the pacer reserves
	// its send times in loop order.
	dests, sites := w.DNSDests, w.Web.Sites
	dnsPerRound := len(vps) * len(dests)
	webPerRound := len(vps) * len(sites) * 2
	dnsCount := cfg.DNSRounds * dnsPerRound
	webProtos := [2]decoy.Protocol{decoy.HTTP, decoy.TLS}
	delay := func(i int) time.Duration {
		if i < dnsCount {
			round, vi, di := i/dnsPerRound, i/len(dests)%len(vps), i%len(dests)
			roundStart := start.Add(time.Duration(round) * cfg.CampaignDuration / time.Duration(cfg.DNSRounds))
			base := roundStart.Add(time.Duration(vi)*11*time.Second + time.Duration(di)*700*time.Millisecond)
			return pacer.NextSendTime(base, dests[di].Addr).Sub(start)
		}
		i -= dnsCount
		round, vi, si := i/webPerRound, i/(2*len(sites))%len(vps), i/2%len(sites)
		roundStart := start.Add(cfg.CampaignDuration/4 + time.Duration(round)*cfg.CampaignDuration/time.Duration(2*cfg.WebRounds))
		base := roundStart.Add(time.Duration(vi)*7*time.Second + time.Duration(si)*300*time.Millisecond)
		return pacer.NextSendTime(base, sites[si].Addr).Sub(start)
	}
	send := func(i int) {
		if i < dnsCount {
			e.sendDNSDecoy(vps[i/len(dests)%len(vps)], dests[i%len(dests)])
			return
		}
		i -= dnsCount
		site := sites[i/2%len(sites)]
		e.sendWebDecoy(vps[i/(2*len(sites))%len(vps)], site.Addr, site.Domain, webProtos[i%2])
	}
	w.Net.ScheduleSeries(dnsCount+cfg.WebRounds*webPerRound, delay, send)

	// Run the campaign and drain all retention-delayed probes.
	w.Net.Run(start.Add(cfg.CampaignDuration))
	w.Net.RunUntilIdle()
	e.EventsPhaseI = e.classifyNew()
}

func (e *Experiment) sendDNSDecoy(vp *vantage.VP, dst DNSDest) {
	w := e.World
	d, err := w.Gen.Generate(decoy.DNS, w.Net.Now(), vp.Addr, wire.Endpoint{Addr: dst.Addr, Port: 53}, 64)
	if err != nil {
		return
	}
	e.recordSentRecursive(d, dst.Name, dst.Kind == "public" || dst.Kind == "control")
	e.dnsDecoysPerDst[dst.Name]++
	vp.SendUDPRequest(w.Net, d.Dst, d.Payload, netsim.UDPRequestOpts{Timeout: 8 * time.Second})
}

func (e *Experiment) sendWebDecoy(vp *vantage.VP, addr wire.Addr, siteName string, proto decoy.Protocol) {
	w := e.World
	port := uint16(80)
	if proto == decoy.TLS {
		port = 443
	}
	d, err := w.Gen.Generate(proto, w.Net.Now(), vp.Addr, wire.Endpoint{Addr: addr, Port: port}, 64)
	if err != nil {
		return
	}
	e.recordSent(d, siteName, correlate.PhaseI)
	vp.SendTCPRequest(w.Net, d.Dst, d.Payload, netsim.TCPRequestOpts{Timeout: 15 * time.Second})
}

func (e *Experiment) recordSent(d *decoy.Decoy, dstName string, phase correlate.Phase) {
	e.sentCounts[d.Protocol]++
	e.decoysSent[d.Protocol].Inc()
	e.Correlator.AddSent(&correlate.Sent{
		Label: d.Label, Domain: d.Domain, Protocol: d.Protocol,
		VP: d.VP, Dst: d.Dst, DstName: dstName,
		Time: d.ID.Time, TTL: d.ID.TTL, Phase: phase,
	})
}

// recordSentRecursive records a Phase I DNS decoy, marking whether one
// authoritative recursion is expected (rule iii's solicited exception).
func (e *Experiment) recordSentRecursive(d *decoy.Decoy, dstName string, recursive bool) {
	e.sentCounts[d.Protocol]++
	e.decoysSent[d.Protocol].Inc()
	e.Correlator.AddSent(&correlate.Sent{
		Label: d.Label, Domain: d.Domain, Protocol: d.Protocol,
		VP: d.VP, Dst: d.Dst, DstName: dstName,
		Time: d.ID.Time, TTL: d.ID.TTL, Phase: correlate.PhaseI,
		ExpectRecursion: recursive,
	})
}

// classifyNew feeds unprocessed honeypot captures to the correlator,
// reading them in place from the log's chunks.
func (e *Experiment) classifyNew() []correlate.Unsolicited {
	fresh := e.World.Honeypots.Log.ChunksFrom(e.processedCaptures)
	for _, ch := range fresh {
		e.processedCaptures += len(ch)
	}
	return e.Correlator.ClassifyChunks(fresh)
}

// sweepJob is one Phase II traceroute: a problematic VP→destination path
// and the decoy protocol that leaked on it.
type sweepJob struct {
	key   correlate.PathKey
	proto decoy.Protocol
	name  string
}

// sweepJobs lists one job per distinct (path, protocol) among the Phase I
// unsolicited events, named after the destination of the first event in
// log order that names it. Job order is unspecified; runPhaseII sorts.
func sweepJobs(events []correlate.Unsolicited) []sweepJob {
	type jobKey struct {
		path  correlate.PathKey
		proto decoy.Protocol
	}
	var jobs []sweepJob
	seen := make(map[jobKey]struct{})
	for i := range events {
		sent := events[i].Sent
		k := jobKey{correlate.PathKey{VP: sent.VP, Dst: sent.Dst.Addr}, sent.Protocol}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		jobs = append(jobs, sweepJob{key: k.path, proto: k.proto, name: sent.DstName})
	}
	return jobs
}

// RunPhaseII traceroutes every problematic path found in Phase I (capped
// per protocol), drains the network, classifies the new captures, and
// locates observers by joining sweep probes with leak evidence.
func (e *Experiment) RunPhaseII() {
	e.phase("phase2", e.runPhaseII)
}

func (e *Experiment) runPhaseII() {
	w := e.World
	jobs := sweepJobs(e.EventsPhaseI)
	// Deterministic shuffle: when the per-protocol cap truncates the job
	// list, the kept subset must sample paths evenly (ordering by VP
	// address would drop every VP allocated late — e.g. the whole CN
	// fleet).
	jobHash := func(j sweepJob) uint64 {
		h := uint64(j.key.VP.Uint32())*0x9E3779B97F4A7C15 ^ uint64(j.key.Dst.Uint32())*0xC2B2AE3D27D4EB4F ^ uint64(j.proto)
		h ^= h >> 29
		h *= 0xBF58476D1CE4E5B9
		return h ^ h>>32
	}
	sort.Slice(jobs, func(i, j int) bool {
		a, b := jobs[i], jobs[j]
		if a.proto != b.proto {
			return a.proto < b.proto
		}
		return jobHash(a) < jobHash(b)
	})

	perProto := make(map[decoy.Protocol]int)
	type sweepRef struct {
		sweep *traceroute.Sweep
		key   correlate.PathKey
		name  string
	}
	var refs []sweepRef
	stagger := time.Duration(0)
	for _, j := range jobs {
		if perProto[j.proto] >= w.Cfg.MaxSweepsPerProtocol {
			continue
		}
		vp := e.vpByAddr[j.key.VP]
		if vp == nil {
			continue
		}
		perProto[j.proto]++
		port := uint16(53)
		switch j.proto {
		case decoy.HTTP:
			port = 80
		case decoy.TLS:
			port = 443
		}
		dst := wire.Endpoint{Addr: j.key.Dst, Port: port}
		j := j
		var sweepSlot sweepRef
		refs = append(refs, sweepSlot)
		idx := len(refs) - 1
		stagger += 200 * time.Millisecond
		func(idx int, delay time.Duration) {
			w.Net.Schedule(delay, func() {
				s, err := e.engine.Sweep(w.Net, vp, dst, j.proto)
				if err != nil {
					return
				}
				refs[idx] = sweepRef{sweep: s, key: j.key, name: j.name}
			})
		}(idx, stagger)
	}

	w.Net.RunUntilIdle()

	// Register Phase II probes in the send log, in TTL order so that which
	// record wins a label collision follows from the seed, then classify
	// the captures they produced.
	for _, ref := range refs {
		if ref.sweep == nil {
			continue
		}
		e.sweeps = append(e.sweeps, ref.sweep)
		for ttl := 1; ttl <= traceroute.HopLimit; ttl++ {
			p := ref.sweep.Probes[uint8(ttl)]
			if p == nil {
				continue
			}
			e.sentCounts[ref.sweep.Proto]++
			e.decoysSent[ref.sweep.Proto].Inc()
			e.Correlator.AddSent(&correlate.Sent{
				Label: p.Label, Domain: p.Domain, Protocol: ref.sweep.Proto,
				VP: ref.sweep.VP.Addr, Dst: ref.sweep.Dst, DstName: ref.name,
				Time: p.SentAt, TTL: p.TTL, Phase: correlate.PhaseII,
			})
		}
	}
	e.EventsPhaseII = e.classifyNew()

	leaked := correlate.LeakedLabels(e.EventsPhaseII)
	for _, u := range e.EventsPhaseI {
		leaked[u.Sent.Label] = true
	}
	for _, ref := range refs {
		if ref.sweep == nil {
			continue
		}
		res := e.engine.Analyze(ref.sweep, leaked)
		e.SweepResults = append(e.SweepResults, res)
		e.resultsByPath[ref.key] = res
	}
}

// Run executes the full experiment and returns the compiled report.
func Run(cfg Config) *Report {
	e := NewExperiment(cfg)
	e.ScreenPairResolvers()
	e.RunPhaseI()
	e.RunPhaseII()
	return e.Compile()
}

// Compile runs the full behavioral analysis over collected evidence.
func (e *Experiment) Compile() *Report {
	var r *Report
	e.phase("compile", func() { r = e.compile() })
	return r
}

func (e *Experiment) compile() *Report {
	w := e.World
	an := &analysis.Analyzer{Geo: w.Topo.Geo, Blocklist: w.Blocklist, Signatures: w.Signatures}
	events := e.EventsPhaseI // landscape analysis uses Phase I evidence

	resolverH := make(map[string]bool)
	for _, name := range resolverHNames() {
		resolverH[name] = true
	}

	r := &Report{
		Config:          w.Cfg,
		Capabilities:    w.Platform.Capabilities(),
		Excluded:        w.Platform.Excluded(),
		PairReport:      e.PairReport,
		Figure3:         an.Figure3(events, e.Universe),
		DestRatios:      an.DestinationRatios(events, e.dstTotals),
		Figure4:         analysis.DelayCDF(events, decoy.DNS, resolverH),
		Figure7HTTP:     analysis.DelayCDF(events, decoy.HTTP, nil),
		Figure7TLS:      analysis.DelayCDF(events, decoy.TLS, nil),
		Figure6:         an.Figure6(events, resolverH, 6),
		MultiUse:        analysis.MultiUseStats(filterByDst(events, resolverH), time.Hour),
		Incentives51:    an.ProbingIncentives(events, decoy.DNS),
		Table2:          analysis.Table2(e.SweepResults),
		DNSDecoysPerDst: e.dnsDecoysPerDst,
		SentCounts:      e.sentCounts,
		CorrelatorStats: e.Correlator.Stats(),
		NetStats:        w.Net.Stats(),
	}
	r.Figure5Cells, r.Figure5PerDst = analysis.Figure5(events)
	r.HTTPishShare = analysis.HTTPishDecoyShare(events, e.dnsDecoysPerDst)
	r.Weekly = analysis.TimeSeries(events, w.Cfg.Start, 7*24*time.Hour, -1)

	r.Figure4PerResolver = make(map[string]*stats.CDF)
	for name := range resolverH {
		r.Figure4PerResolver[name] = analysis.DelayCDF(events, decoy.DNS, map[string]bool{name: true})
	}

	r.Table3, r.ObserverAddrs = an.Table3(e.SweepResults, 3)
	r.ObserverCountries = an.ObserverCountryShare(r.ObserverAddrs)

	// §5.2 analysis over HTTP/TLS decoy events.
	webEvents := filterByProto(events, decoy.HTTP, decoy.TLS)
	r.Incentives52 = an.ProbingIncentives(webEvents, -1)
	r.Behaviours = an.ObserverBehaviourByAS(webEvents, e.resultsByPath)
	r.Top5Coverage = analysis.TopNCoverage(r.Behaviours, 5)

	// Port-scan every distinct on-wire observer address (§5.2). Iterate
	// protocols in fixed order — ranging over the map would reorder the
	// scan schedule run to run.
	var targets []wire.Addr
	seen := make(map[wire.Addr]bool)
	for _, proto := range []decoy.Protocol{decoy.DNS, decoy.HTTP, decoy.TLS} {
		for _, a := range r.ObserverAddrs[proto] {
			if !seen[a] {
				seen[a] = true
				targets = append(targets, a)
			}
		}
	}
	if len(targets) > 0 {
		scannerAS := w.Topo.HostingASes("US")[0]
		scanner := &probe.Scanner{Host: netsim.NewHost(w.Net, w.Topo.AllocHostAddr(scannerAS))}
		r.ProbeSummary = probe.Summarize(scanner.Scan(w.Net, targets))
	}
	return r
}

func resolverHNames() []string {
	return []string{"Yandex", "114DNS", "OneDNS", "DNSPAI", "VERCARA"}
}

func filterByDst(events []correlate.Unsolicited, names map[string]bool) []correlate.Unsolicited {
	out := make([]correlate.Unsolicited, 0, len(events))
	for _, u := range events {
		if names[u.Sent.DstName] {
			out = append(out, u)
		}
	}
	return out
}

func filterByProto(events []correlate.Unsolicited, protos ...decoy.Protocol) []correlate.Unsolicited {
	want := make(map[decoy.Protocol]bool)
	for _, p := range protos {
		want[p] = true
	}
	out := make([]correlate.Unsolicited, 0, len(events))
	for _, u := range events {
		if want[u.Sent.Protocol] {
			out = append(out, u)
		}
	}
	return out
}
