package bench

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// Span is one timed call into a module, with the process-wide
// runtime/metrics deltas over it. A traced run has one worker, so the
// deltas belong to the call (plus the GC work it caused). GC CPU is the
// runtime's estimate, refreshed at each GC end.
type Span struct {
	ID           int     `json:"id"`
	Parent       int     `json:"parent"` // -1 for a root span
	Name         string  `json:"name"`
	Trial        int     `json:"trial"` // -1 outside a trial
	StartS       float64 `json:"start_s"`
	EndS         float64 `json:"end_s"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`
	GCCPUS       float64 `json:"gc_cpu_s"`
	CPUS         float64 `json:"cpu_s"`

	at snapshot
}

func (s *Span) seconds() float64 { return s.EndS - s.StartS }

// snapshot is the process state a span boundary reads.
type snapshot struct {
	wall                     time.Time
	allocBytes, allocObjects uint64
	gcCPU, totalCPU, idleCPU float64
	cpu                      time.Duration
}

var snapshotMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func takeSnapshot(samples []metrics.Sample) snapshot {
	metrics.Read(samples)
	return snapshot{
		wall:         time.Now(),
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCPU:        samples[2].Value.Float64(),
		totalCPU:     samples[3].Value.Float64(),
		idleCPU:      samples[4].Value.Float64(),
		cpu:          cpuTime(),
	}
}

func newSamples() []metrics.Sample {
	s := make([]metrics.Sample, len(snapshotMetrics))
	for i, name := range snapshotMetrics {
		s[i].Name = name
	}
	return s
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the traced code paths.
type tracer struct {
	start    time.Time
	spans    []Span
	open     []int
	samples  []metrics.Sample
	overhead time.Duration
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), samples: newSamples()}
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string, trial int) int {
	if t == nil {
		return -1
	}
	t0 := time.Now()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	at := takeSnapshot(t.samples)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Trial: trial, StartS: at.wall.Sub(t.start).Seconds(), at: at})
	t.open = append(t.open, id)
	t.overhead += time.Since(t0)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t0 := time.Now()
	now := takeSnapshot(t.samples)
	s := &t.spans[id]
	s.EndS = now.wall.Sub(t.start).Seconds()
	s.AllocBytes = now.allocBytes - s.at.allocBytes
	s.AllocObjects = now.allocObjects - s.at.allocObjects
	s.GCCPUS = now.gcCPU - s.at.gcCPU
	s.CPUS = (now.cpu - s.at.cpu).Seconds()
	t.open = t.open[:len(t.open)-1]
	t.overhead += time.Since(t0)
}

// Layer aggregates the spans of one name; SelfS is their time minus the
// part their child spans cover.
type Layer struct {
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	AllocMB float64 `json:"alloc_mb"`
	GCCPUS  float64 `json:"gc_cpu_s"`
	CPUS    float64 `json:"cpu_s"`
}

func (t *tracer) layers() map[string]*Layer {
	childS := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childS[s.Parent] += s.seconds()
		}
	}
	out := make(map[string]*Layer)
	for i, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &Layer{}
			out[s.Name] = l
		}
		l.Count++
		l.TotalS += s.seconds()
		l.SelfS += s.seconds() - childS[i]
		l.AllocMB += float64(s.AllocBytes) / (1 << 20)
		l.GCCPUS += s.GCCPUS
		l.CPUS += s.CPUS
	}
	return out
}

// peakSampler tracks the high-water mark of a runtime/metrics reading,
// taken every samplePeriod by a goroutine that stop waits for.
type peakSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	peak  uint64
}

// samplePeriod is short next to a GC cycle on every workload, and the
// live heap changes only at GC ends.
const samplePeriod = 20 * time.Millisecond

// residentBytes is the memory the Go runtime holds from the OS: all it
// mapped minus what it released. For this pure-Go process it tracks the
// kernel's resident set size closely.
func residentBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startPeakSampler(read func() uint64) *peakSampler {
	s := &peakSampler{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			v := read()
			s.mu.Lock()
			s.peak = max(s.peak, v)
			s.mu.Unlock()
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// take returns the peak since the last take and resets it; the next
// reading starts the new peak.
func (s *peakSampler) take() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.peak
	s.peak = 0
	return v
}

func (s *peakSampler) stop() {
	close(s.stopc)
	s.wg.Wait()
}

// measured is a traced run's measured section: the runtime deltas over
// it, the live heap's high-water mark, and the CPU profile, whose
// existing `phase` labels ride along.
type measured struct {
	samples []metrics.Sample
	from    snapshot
	live    *peakSampler
	prof    *os.File
}

func (r *run) startMeasured() (*measured, error) {
	if err := os.MkdirAll(r.o.TraceDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(r.o.TraceDir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	m := &measured{samples: newSamples(), live: startPeakSampler(liveHeapBytes), prof: f}
	m.from = takeSnapshot(m.samples)
	return m, nil
}

// stopMeasured ends the section and derives the per-layer metrics of a
// traced run; ops is the section's operation count.
func (r *run) stopMeasured(tr *tracer, m *measured, ops int) error {
	from, to := m.from, takeSnapshot(m.samples)
	m.live.stop()
	pprof.StopCPUProfile()
	if err := m.prof.Close(); err != nil {
		return err
	}
	shares, err := cpuShares(m.prof.Name())
	if err != nil {
		return err
	}
	for _, mod := range cpuShareModules {
		r.metrics["cpu_share."+mod] = shares[mod]
	}
	r.metrics["runtime.alloc_mb_per_op"] = float64(to.allocBytes-from.allocBytes) / (1 << 20) / float64(ops)
	r.metrics["runtime.allocs_per_op"] = float64(to.allocObjects-from.allocObjects) / float64(ops)
	// The GC's share of the CPU time the process used, both as the
	// runtime estimates them. The estimates advance only at GC ends, so a
	// section without a GC reads none.
	r.metrics["runtime.gc_cpu_share"] = 0
	if busy := (to.totalCPU - to.idleCPU) - (from.totalCPU - from.idleCPU); busy > 0 {
		r.metrics["runtime.gc_cpu_share"] = (to.gcCPU - from.gcCPU) / busy
	}
	r.metrics["runtime.peak_live_heap_mb"] = float64(m.live.take()) / (1 << 20)
	for name, xs := range r.samples {
		r.metrics[name] = Median(xs)
	}
	r.metrics["trace.overhead_share"] = tr.overhead.Seconds() / time.Since(tr.start).Seconds()
	return nil
}

// writeTrace writes spans.json and layers.json beside cpu.pprof.
func (r *run) writeTrace(tr *tracer) error {
	if err := writeJSON(filepath.Join(r.o.TraceDir, "spans.json"), tr.spans); err != nil {
		return err
	}
	return writeJSON(filepath.Join(r.o.TraceDir, "layers.json"), map[string]any{
		"workload": r.o.Workload,
		"seed":     r.o.Seed,
		"layers":   tr.layers(),
		"metrics":  r.metrics,
	})
}
