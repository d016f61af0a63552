package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Tracer records spans (named intervals) and events stamped with the
// time supplied by its Clock. On the simulation path the clock is
// netsim's virtual time, so a two-month campaign traces as two months of
// virtual duration regardless of wall-clock speed — and traces are
// byte-identical across runs with the same seed.
type Tracer struct {
	// Clock stamps span starts and ends. Nil stamps the zero time (spans
	// still count; durations are zero).
	Clock Clock

	mu  sync.Mutex
	agg map[string]*SpanStats

	// recent is a rolling ring of the last DefaultRecentSpans finished
	// spans, always the newest. It feeds the flight recorder: when a
	// trial is dumped (panic, slow-trial watchdog, SIGQUIT) the ring is
	// the "what was this world doing" record.
	recent     []SpanRecord
	recentNext int
	recentFull bool
}

// DefaultRecentSpans sizes the rolling last-N span ring kept for flight
// dumps.
const DefaultRecentSpans = 256

// SpanStats aggregates all spans of one name.
type SpanStats struct {
	Name   string
	Count  int64
	Events int64
	// Total is the summed span duration in the tracer's time domain
	// (virtual time on the simulation path).
	Total time.Duration
}

// SpanRecord is one finished span.
type SpanRecord struct {
	Name       string
	Start, End time.Time
	Events     int64
}

// NewTracer creates a tracer over clock (nil is allowed; see Clock).
func NewTracer(clock Clock) *Tracer {
	return &Tracer{Clock: clock, agg: make(map[string]*SpanStats)}
}

func (t *Tracer) now() time.Time {
	if t.Clock != nil {
		return t.Clock()
	}
	return time.Time{}
}

// Start opens a span. The caller must End it; spans may nest freely
// (they are independent intervals, not a stack).
func (t *Tracer) Start(name string) *Span {
	return &Span{tr: t, name: name, start: t.now()}
}

// Span is one open interval.
type Span struct {
	tr     *Tracer
	name   string
	start  time.Time
	events int64
	done   bool
}

// Event counts one notable occurrence inside the span.
func (s *Span) Event() { s.events++ }

// End closes the span, folds it into the per-name aggregate, and returns
// its duration. Ending twice is a no-op.
func (s *Span) End() time.Duration {
	if s.done {
		return 0
	}
	s.done = true
	end := s.tr.now()
	d := end.Sub(s.start)
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.agg[s.name]
	if !ok {
		st = &SpanStats{Name: s.name}
		t.agg[s.name] = st
	}
	st.Count++
	st.Events += s.events
	st.Total += d
	if t.recent == nil {
		t.recent = make([]SpanRecord, DefaultRecentSpans)
	}
	t.recent[t.recentNext] = SpanRecord{Name: s.name, Start: s.start, End: end, Events: s.events}
	t.recentNext++
	if t.recentNext == len(t.recent) {
		t.recentNext, t.recentFull = 0, true
	}
	return d
}

// Summary returns the per-name aggregates sorted by name.
func (t *Tracer) Summary() []SpanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanStats, 0, len(t.agg))
	for _, st := range t.agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Recent returns the rolling last-N finished spans in completion order
// (oldest first). Safe to call from any goroutine — the flight recorder
// reads a live world's tracer this way while its event loop runs.
func (t *Tracer) Recent() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.recent == nil {
		return nil
	}
	if !t.recentFull {
		return append([]SpanRecord(nil), t.recent[:t.recentNext]...)
	}
	out := make([]SpanRecord, 0, len(t.recent))
	out = append(out, t.recent[t.recentNext:]...)
	out = append(out, t.recent[:t.recentNext]...)
	return out
}
