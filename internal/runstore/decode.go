// Record decoding: the one reader of trial-log frame payloads.
//
// Frames are written with json.Marshal and read back here by a
// single-pass decoder that knows the TrialRecord schema, instead of
// encoding/json's reflection walk (which dominated every store read:
// resume, show, retention, tail, compact and merge). It accepts exactly
// the inputs json.Unmarshal accepts into a TrialRecord and yields the
// same record, with one deliberate exception: an object that names the
// same struct field twice is rejected, where encoding/json would merge
// the second value into the first (reusing slice elements). The encoder
// never writes such an object. FuzzDecodeFrame holds the two decoders
// to this rule.
//
// What "the same" means, field by field:
//
//   - keys in any order with any whitespace; a key selects a field by
//     exact name, else case-insensitively (bytes.EqualFold) after
//     unescaping; unknown keys are skipped but still syntax-checked;
//   - null leaves a field at its zero value (a nil map, slice or pointer);
//     an empty array or object yields an empty, non-nil one;
//   - strings have every escape decoded, surrogate pairs joined, and
//     invalid UTF-8 and lone surrogates replaced by U+FFFD; raw control
//     characters are a syntax error;
//   - integer fields take only integer literals in range; floats go
//     through strconv.ParseFloat, which rejects out-of-range values;
//   - nesting deeper than encoding/json's 10,000 levels is rejected, and
//     so is anything but whitespace after the top-level value.
//
// Decoded strings never alias the frame buffer. Event labels share one
// backing string per record, and the small set of protocol and
// destination names repeated across events is interned per record.
//
// Events are 99.5% of a record's bytes, so each one first tries a fast
// path for the exact shape json.Marshal writes:
//
//	{"label":"…","sent_proto":"…","capture_proto":"…","dst_name":"…","delay_ns":N}
//
// with the keys as exact byte prefixes, strings of plainByte bytes only,
// and N an integer literal of at most 18 digits with no leading zero,
// followed by the closing brace. Any deviation rewinds the cursor to the
// element's first byte and decodes the element through the generic path
// below, so what the fast path accepts it decodes exactly as the generic
// path would: verdicts and records stay those of json.Unmarshal by
// construction.
//
// A summary decode walks the events with the same grammar and type checks
// but keeps none of them: the record comes back with Events nil, plus the
// event count and delay range a HeadlineRow needs. Readers that never
// look at events (resume, open's rebuild scan, salvage, LogOffsets) use
// it.
package runstore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"shadowmeter/internal/telemetry"
)

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

// errDuplicateField reports the decoder's one deliberate divergence from
// encoding/json: a struct field named twice in one object.
var errDuplicateField = errors.New("field named twice in one object")

// JSON field names of each decoded struct, in the order the decoders'
// switch statements number them.
var (
	recordFields = []string{"trial", "seed", "config_hash", "headline", "vstart_ns", "vend_ns", "events", "metrics", "spans"}
	eventFields  = []string{"label", "sent_proto", "capture_proto", "dst_name", "delay_ns"}
	metricFields = []string{"Name", "Help", "Kind", "LabelName", "Value", "Children", "Hist"}
	childFields  = []string{"Label", "Value"}
	histFields   = []string{"Bounds", "Counts", "Sum", "Count"}
	spanFields   = []string{"Name", "Count", "Events", "Total"}
)

// readMode selects what a decode keeps of a record's events.
type readMode uint8

const (
	// fullRead decodes every event into the record.
	fullRead readMode = iota
	// summaryRead checks every event as fullRead does but keeps only
	// their count and delay range; the record's Events stay nil.
	summaryRead
)

// eventSummary is what a HeadlineRow keeps of a record's events: their
// number and the range of their delays (both zero without events).
type eventSummary struct {
	n        int
	min, max int64
}

func (s *eventSummary) add(delayNS int64) {
	if s.n == 0 || delayNS < s.min {
		s.min = delayNS
	}
	if s.n == 0 || delayNS > s.max {
		s.max = delayNS
	}
	s.n++
}

// summarize folds events the way a summary decode does.
func summarize(events []EventRecord) eventSummary {
	var s eventSummary
	for _, ev := range events {
		s.add(ev.DelayNS)
	}
	return s
}

// recordDecoder is a cursor over one frame payload plus scratch space
// that pooled decoders carry from record to record.
type recordDecoder struct {
	data  []byte
	pos   int
	depth int
	keep  bool         // decode events into the record (fullRead)
	sum   eventSummary // the events seen so far, in either mode

	buf    []byte            // unescape scratch; string results alias it until the next string
	names  map[string]string // this record's interned event protocol and destination names
	evs    []EventRecord     // events as decoded, copied out into an exactly sized slice
	labels []byte            // event label bytes, copied out into one string
	ends   []int             // end offset of each event's label in labels
}

var decoderPool = sync.Pool{New: func() any { return new(recordDecoder) }}

// decodeRecord decodes one frame payload; mode says whether the events
// are kept or only summarized.
func decodeRecord(payload []byte, mode readMode) (TrialRecord, eventSummary, error) {
	d := decoderPool.Get().(*recordDecoder)
	d.data, d.pos, d.depth = payload, 0, 0
	d.keep, d.sum = mode == fullRead, eventSummary{}
	var rec TrialRecord
	d.ws()
	err := d.record(&rec)
	d.ws()
	if err == nil && d.pos != len(d.data) {
		err = d.errorf("data after top-level value")
	}
	sum := d.sum
	d.data = nil
	clear(d.names) // interning is per record, and the pool must not pin it
	decoderPool.Put(d)
	if err != nil {
		return TrialRecord{}, eventSummary{}, err
	}
	return rec, sum, nil
}

// record decodes the top-level value; null, as in encoding/json, leaves
// the record zero.
func (d *recordDecoder) record(rec *TrialRecord) error {
	return d.structOrNull(recordFields, func(i int) (err error) {
		switch i {
		case 0:
			rec.Trial, err = d.int()
		case 1:
			rec.Seed, err = d.int64()
		case 2:
			rec.ConfigHash, err = d.string()
		case 3:
			rec.Headline, err = d.headline()
		case 4:
			rec.VStartNS, err = d.int64()
		case 5:
			rec.VEndNS, err = d.int64()
		case 6:
			rec.Events, err = d.events()
		case 7:
			rec.Metrics, err = slice(d, d.metric)
		case 8:
			rec.Spans, err = slice(d, d.span)
		}
		return err
	})
}

func (d *recordDecoder) headline() (map[string]float64, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	err := d.object(func(key []byte) error {
		v, err := d.float64()
		// A repeated map key overwrites, as in encoding/json: it merges
		// nothing, so it is not the duplicate-field divergence.
		m[string(key)] = v
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// events decodes the events array. A summary decode returns nil and
// leaves only d.sum behind.
func (d *recordDecoder) events() ([]EventRecord, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	if !d.keep {
		var ev EventRecord // scratch: a summary keeps only the delay
		return nil, d.array(func() error {
			ev = EventRecord{}
			if !d.fastEvent(&ev, nil) {
				if err := d.event(&ev, nil); err != nil {
					return err
				}
			}
			d.sum.add(ev.DelayNS)
			return nil
		})
	}
	d.evs, d.labels, d.ends = d.evs[:0], d.labels[:0], d.ends[:0]
	first := 0 // offset of the first event
	err := d.array(func() error {
		switch len(d.evs) {
		case 0:
			first = d.pos
		case 1:
			d.sizeEvents(d.pos - first)
		}
		d.evs = append(d.evs, EventRecord{})
		n := len(d.evs)
		ev, prev := &d.evs[n-1], &noEvent
		if n > 1 {
			prev = &d.evs[n-2]
		}
		var err error
		if !d.fastEvent(ev, prev) {
			err = d.event(ev, prev)
		}
		d.ends = append(d.ends, len(d.labels))
		d.sum.add(ev.DelayNS)
		return err
	})
	var evs []EventRecord
	if err == nil {
		evs = make([]EventRecord, len(d.evs))
		copy(evs, d.evs)
	}
	clear(d.evs) // the pooled scratch must not pin this record's strings
	if err != nil {
		return nil, err
	}
	all := string(d.labels)
	start := 0
	for i, end := range d.ends {
		evs[i].Label = all[start:end]
		start = end
	}
	return evs, nil
}

// event decodes one events element through the generic path. When the
// decoder keeps events, the label is appended to d.labels and the names
// are interned (prev holds the previous event's); otherwise every field
// is checked and only the delay is stored.
func (d *recordDecoder) event(ev, prev *EventRecord) error {
	return d.structOrNull(eventFields, func(i int) (err error) {
		if i == 4 {
			ev.DelayNS, err = d.int64()
			return err
		}
		b, err := d.stringBytes()
		if err != nil || !d.keep {
			return err
		}
		switch i {
		case 0:
			d.labels = append(d.labels, b...)
		case 1:
			ev.SentProto = d.intern(b, prev.SentProto)
		case 2:
			ev.CaptureProto = d.intern(b, prev.CaptureProto)
		case 3:
			ev.DstName = d.intern(b, prev.DstName)
		}
		return nil
	})
}

// noEvent is the "previous event" of a record's first event.
var noEvent EventRecord

// Key prefixes of the fast path's event shape, each running up to the
// first byte of the value.
const (
	evLabelKey   = `{"label":"`
	evSentKey    = `,"sent_proto":"`
	evCaptureKey = `,"capture_proto":"`
	evDstKey     = `,"dst_name":"`
	evDelayKey   = `,"delay_ns":`
)

// fastEvent decodes the events element at the cursor if it has exactly
// the shape json.Marshal writes (see the file comment) and reports
// whether it did. On false nothing has changed: not the cursor, not ev,
// not the scratch. A summary decode (prev nil) stores only the delay.
func (d *recordDecoder) fastEvent(ev, prev *EventRecord) bool {
	data := d.data
	label, i, ok := plainValue(data, d.pos, evLabelKey)
	if !ok {
		return false
	}
	sent, i, ok := plainValue(data, i, evSentKey)
	if !ok {
		return false
	}
	capture, i, ok := plainValue(data, i, evCaptureKey)
	if !ok {
		return false
	}
	dst, i, ok := plainValue(data, i, evDstKey)
	if !ok || !hasPrefixAt(data, i, evDelayKey) {
		return false
	}
	delay, i, ok := shortInt(data, i+len(evDelayKey))
	if !ok || i >= len(data) || data[i] != '}' {
		return false
	}
	if d.keep {
		d.labels = append(d.labels, label...)
		ev.SentProto = d.intern(sent, prev.SentProto)
		ev.CaptureProto = d.intern(capture, prev.CaptureProto)
		ev.DstName = d.intern(dst, prev.DstName)
	}
	ev.DelayNS = delay
	d.pos = i + 1
	return true
}

// hasPrefixAt reports whether data[i:] begins with prefix.
func hasPrefixAt(data []byte, i int, prefix string) bool {
	return len(data)-i >= len(prefix) && string(data[i:i+len(prefix)]) == prefix
}

// plainValue matches key (which ends with the value's opening quote) at
// data[i:] and a string of plainByte bytes after it, returning those
// bytes and the offset past the closing quote.
func plainValue(data []byte, i int, key string) ([]byte, int, bool) {
	if !hasPrefixAt(data, i, key) {
		return nil, 0, false
	}
	start := i + len(key)
	for j := start; j < len(data); j++ {
		if c := data[j]; !plainByte[c] {
			if c == '"' {
				return data[start:j], j + 1, true
			}
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// shortInt parses the integer literal at data[i:] if it has at most 18
// digits and no leading zero (so it fits an int64 without a range
// check), returning it and the offset past it.
func shortInt(data []byte, i int) (int64, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	if i >= len(data) || data[i] < '0' || data[i] > '9' {
		return 0, 0, false
	}
	if data[i] == '0' {
		// Only a bare 0 passes: -0 fails here, and a leading zero fails
		// the caller's check for the closing brace.
		return 0, i + 1, !neg
	}
	var n int64
	j := i
	for ; j < len(data) && '0' <= data[j] && data[j] <= '9'; j++ {
		if j-i == 18 {
			return 0, 0, false
		}
		n = n*10 + int64(data[j]-'0')
	}
	if neg {
		n = -n
	}
	return n, j, true
}

// minEventBytes floors the encoded size sizeEvents assumes per event. An
// event with all five fields takes more than 64 bytes of JSON, and the
// floor bounds the scratch a frame of tiny events can claim to about its
// own size.
const minEventBytes = 64

// sizeEvents grows the events scratch, once the first event is decoded
// (firstLen bytes with its separator), to hold the rest of the frame if the
// others encode about as long: a pooled decoder that the GC dropped then
// regrows in one step, not by doubling. Events past the estimate still
// append as usual.
func (d *recordDecoder) sizeEvents(firstLen int) {
	per := max(firstLen, minEventBytes)
	rest := (len(d.data) - d.pos) / per
	want := 1 + rest + rest/8
	if cap(d.evs) < want {
		d.evs = slices.Grow(d.evs, want-len(d.evs))
		d.ends = slices.Grow(d.ends, want-len(d.ends))
	}
	if lw := want * len(d.labels); cap(d.labels) < lw {
		d.labels = slices.Grow(d.labels, lw-len(d.labels))
	}
}

func (d *recordDecoder) metric(m *telemetry.Metric) error {
	return d.structOrNull(metricFields, func(i int) (err error) {
		switch i {
		case 0:
			m.Name, err = d.string()
		case 1:
			m.Help, err = d.string()
		case 2:
			var k int
			k, err = d.int()
			m.Kind = telemetry.Kind(k)
		case 3:
			m.LabelName, err = d.string()
		case 4:
			m.Value, err = d.int64()
		case 5:
			m.Children, err = slice(d, d.child)
		case 6:
			m.Hist, err = d.histogram()
		}
		return err
	})
}

func (d *recordDecoder) child(c *telemetry.Child) error {
	return d.structOrNull(childFields, func(i int) (err error) {
		switch i {
		case 0:
			c.Label, err = d.string()
		case 1:
			c.Value, err = d.int64()
		}
		return err
	})
}

func (d *recordDecoder) histogram() (*telemetry.HistogramSnapshot, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	h := &telemetry.HistogramSnapshot{}
	err := d.members(histFields, func(i int) (err error) {
		switch i {
		case 0:
			h.Bounds, err = slice(d, func(v *float64) (err error) {
				*v, err = d.float64()
				return err
			})
		case 1:
			h.Counts, err = slice(d, func(v *int64) (err error) {
				*v, err = d.int64()
				return err
			})
		case 2:
			h.Sum, err = d.float64()
		case 3:
			h.Count, err = d.int64()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return h, nil
}

func (d *recordDecoder) span(s *telemetry.SpanStats) error {
	return d.structOrNull(spanFields, func(i int) (err error) {
		switch i {
		case 0:
			s.Name, err = d.string()
		case 1:
			s.Count, err = d.int64()
		case 2:
			s.Events, err = d.int64()
		case 3:
			var n int64
			n, err = d.int64()
			s.Total = time.Duration(n)
		}
		return err
	})
}

// slice decodes an array field, elem filling each new element: null
// yields a nil slice and [] an empty, non-nil one.
func slice[T any](d *recordDecoder, elem func(*T) error) ([]T, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	xs := []T{}
	err := d.array(func() error {
		var zero T
		xs = append(xs, zero)
		return elem(&xs[len(xs)-1])
	})
	if err != nil {
		return nil, err
	}
	return xs, nil
}

// structOrNull decodes a struct array element; null leaves it zero.
func (d *recordDecoder) structOrNull(fields []string, set func(i int) error) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	return d.members(fields, set)
}

// members decodes the object at the cursor as a struct whose JSON field
// names are fields: set(i) decodes the value of fields[i], and the value
// of any other key is skipped. A nil fields skips every member, which is
// how unknown objects are syntax-checked.
func (d *recordDecoder) members(fields []string, set func(i int) error) error {
	var seen uint64
	return d.object(func(key []byte) error {
		i := fieldIndex(fields, key)
		switch {
		case i < 0:
			return d.skip()
		case seen&(1<<i) != 0:
			return d.errorf("%w: %q", errDuplicateField, fields[i])
		}
		seen |= 1 << i
		return set(i)
	})
}

// fieldIndex matches an unescaped key to a field name the way
// encoding/json does: an exact match, else a case-insensitive one. The
// schema's names are distinct under folding, so the match is unique.
func fieldIndex(fields []string, key []byte) int {
	for i, f := range fields {
		if string(key) == f {
			return i
		}
	}
	for i, f := range fields {
		if strings.EqualFold(string(key), f) {
			return i
		}
	}
	return -1
}

// object decodes the object at the cursor, calling member with each
// unescaped key (which aliases the input or the scratch buffer) and the
// cursor on its value.
func (d *recordDecoder) object(member func(key []byte) error) error {
	return d.elements('{', '}', func() error {
		key, err := d.quoted()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.errorf("want ':' after object key")
		}
		d.pos++
		d.ws()
		return member(key)
	})
}

// array decodes the array at the cursor, calling elem with the cursor on
// each element's first byte.
func (d *recordDecoder) array(elem func() error) error {
	return d.elements('[', ']', elem)
}

// elements consumes a bracketed, comma-separated list, calling elem with
// the cursor on each element.
func (d *recordDecoder) elements(open, close byte, elem func() error) error {
	if d.peek() != open {
		return d.errorf("want %q", open)
	}
	d.pos++
	if d.depth++; d.depth > maxNestingDepth {
		return d.errorf("exceeded max depth")
	}
	d.ws()
	if d.peek() == close {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case close:
			d.pos++
			d.depth--
			return nil
		default:
			return d.errorf("want ',' or %q", close)
		}
	}
}

// skip syntax-checks and consumes any value.
func (d *recordDecoder) skip() error {
	switch c := d.peek(); c {
	case '{':
		return d.members(nil, nil)
	case '[':
		return d.array(d.skip)
	case '"':
		_, err := d.quoted()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, err := d.number()
	return err
}

// null consumes a null literal if one is at the cursor.
func (d *recordDecoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

func (d *recordDecoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		return d.errorf("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

func (d *recordDecoder) string() (string, error) {
	b, err := d.stringBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// intern returns b as a string shared by every event of the record that
// names it: prev, the previous event's value, when b equals it, else the
// record's interned copy.
func (d *recordDecoder) intern(b []byte, prev string) string {
	if string(b) == prev {
		return prev
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	if d.names == nil {
		d.names = make(map[string]string)
	}
	s := string(b)
	d.names[s] = s
	return s
}

// stringBytes decodes a string field; null yields no bytes.
func (d *recordDecoder) stringBytes() ([]byte, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	return d.quoted()
}

// quoted consumes a string literal and returns its unescaped bytes: a
// slice of the input when it holds no escape and no non-ASCII byte, else
// of the scratch buffer.
func (d *recordDecoder) quoted() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errorf("want string")
	}
	data := d.data
	start := d.pos + 1
	for i := start; i < len(data); i++ {
		if c := data[i]; !plainByte[c] {
			if c == '"' {
				d.pos = i + 1
				return data[start:i], nil
			}
			return d.unescape(start, i)
		}
	}
	return nil, d.errorf("unterminated string")
}

// plainByte marks the bytes a string can hold verbatim: printable ASCII
// other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape finishes a string whose plain prefix is data[start:i],
// decoding escapes and coercing the rest to well-formed UTF-8 exactly
// as encoding/json's unquote does.
func (d *recordDecoder) unescape(start, i int) ([]byte, error) {
	data := d.data
	b := append(d.buf[:0], data[start:i]...)
	defer func() { d.buf = b[:0] }()
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return b, nil
		case c < ' ':
			return nil, d.errorf("control character in string")
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, r)
			} else {
				b = append(b, data[i:i+size]...)
			}
			i += size
		default: // backslash
			if i+1 >= len(data) {
				return nil, d.errorf("unterminated escape")
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data, i+2)
				if r < 0 {
					return nil, d.errorf("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						r2 = hex4(data, i+2)
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, d.errorf("invalid escape")
			}
			i += 2
		}
	}
	return nil, d.errorf("unterminated string")
}

// hex4 parses the four hex digits at data[i:], or returns -1.
func hex4(data []byte, i int) rune {
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number consumes a JSON number literal and returns its bytes.
func (d *recordDecoder) number() ([]byte, error) {
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i+1)
	default:
		return nil, d.errorf("invalid value")
	}
	if i < len(data) && data[i] == '.' {
		j := skipDigits(data, i+1)
		if j == i+1 {
			return nil, d.errorf("invalid number fraction")
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := skipDigits(data, i)
		if j == i {
			return nil, d.errorf("invalid number exponent")
		}
		i = j
	}
	lit := data[d.pos:i]
	d.pos = i
	return lit, nil
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// int64 decodes an integer field (null yields 0). Like encoding/json it
// takes only an integer literal that fits: 1e3 and 1.0 are refused.
func (d *recordDecoder) int64() (int64, error) {
	if null, err := d.null(); null || err != nil {
		return 0, err
	}
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	neg := lit[0] == '-'
	digits := lit
	if neg {
		digits = lit[1:]
	}
	// The grammar allows no leading zeros, so 19 digits always fit a
	// uint64 and 20 never fit an int64.
	if len(digits) > 19 {
		return 0, d.errorf("integer %s out of range", lit)
	}
	var u uint64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, d.errorf("number %s is not an integer", lit)
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u), nil
	case !neg && u < 1<<63:
		return int64(u), nil
	}
	return 0, d.errorf("integer %s out of range", lit)
}

// int decodes an int field, refusing values int cannot hold.
func (d *recordDecoder) int() (int, error) {
	n, err := d.int64()
	if err == nil && int64(int(n)) != n {
		return 0, d.errorf("integer %d out of range for int", n)
	}
	return int(n), err
}

// float64 decodes a float field (null yields 0) with strconv.ParseFloat,
// which refuses values beyond float64's range.
func (d *recordDecoder) float64() (float64, error) {
	if null, err := d.null(); null || err != nil {
		return 0, err
	}
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, d.errorf("number %s: %w", lit, err)
	}
	return v, nil
}

func (d *recordDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of the input.
func (d *recordDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *recordDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("record payload offset %d: %w", d.pos, fmt.Errorf(format, args...))
}
