package runstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"shadowmeter/internal/telemetry"
)

// frameOf wraps a payload in a valid frame header.
func frameOf(payload []byte) []byte {
	frame := make([]byte, headerSize, headerSize+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], recordMagic)
	binary.BigEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[8:12], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// checkDecodeMatchesJSON is the decoder's equivalence rule: decodeFrame
// accepts a payload exactly when json.Unmarshal does, and then returns
// the record json.Unmarshal fills, sharing no bytes with the frame. The
// one tolerated disagreement is a refusal of an object that names the
// same field twice, which encoding/json merges instead. A summary decode
// of the same frame gives the same verdict, the same record with Events
// nil, and the event count and delay range of the full record's events.
// It reports whether the payload was accepted.
func checkDecodeMatchesJSON(t *testing.T, payload []byte) bool {
	t.Helper()
	frame := frameOf(payload)
	got, events, n, ok := decodeFrame(frame, fullRead)
	brief, briefEvents, briefN, briefOK := decodeFrame(frame, summaryRead)
	if briefOK != ok || briefN != n {
		t.Fatalf("summary decode verdict %v (%d bytes), full decode %v (%d bytes)", briefOK, briefN, ok, n)
	}
	var want TrialRecord
	jerr := json.Unmarshal(payload, &want)
	switch {
	case ok && jerr == nil:
		if n != len(frame) {
			t.Fatalf("decodeFrame consumed %d of %d bytes", n, len(frame))
		}
		// Clobber the frame: a decoded string aliasing it would change.
		for i := range frame {
			frame[i] = 'X'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded record differs from encoding/json's:\n got %+v\nwant %+v", got, want)
		}
		wantEvents := summarize(want.Events)
		if events != wantEvents || briefEvents != wantEvents {
			t.Fatalf("event summaries: full decode %+v, summary decode %+v, want %+v", events, briefEvents, wantEvents)
		}
		want.Events = nil
		if !reflect.DeepEqual(brief, want) {
			t.Fatalf("summary-decoded record differs from encoding/json's without events:\n got %+v\nwant %+v", brief, want)
		}
	case ok:
		t.Fatalf("decoder accepts a payload encoding/json refuses (%v)", jerr)
	case jerr == nil:
		_, _, err := decodeRecord(payload, fullRead)
		if !errors.Is(err, errDuplicateField) || !repeatsKey(payload) {
			t.Fatalf("decoder refuses a payload encoding/json accepts: %v", err)
		}
	}
	return ok
}

// repeatsKey reports whether any object in a valid JSON document names
// one key twice, compared the way struct fields match (case-folded). It
// walks json.Decoder tokens, independent of the decoder under test.
func repeatsKey(doc []byte) bool {
	type level struct {
		object, wantKey bool
		keys            []string
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	var stack []level
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return false
		}
		if err != nil {
			return false
		}
		if n := len(stack); n > 0 && stack[n-1].object && stack[n-1].wantKey {
			top := &stack[n-1]
			if key, ok := tok.(string); ok {
				for _, k := range top.keys {
					if strings.EqualFold(k, key) {
						return true
					}
				}
				top.keys = append(top.keys, key)
				top.wantKey = false
				continue
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, level{object: true, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, level{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value ended: the enclosing object expects its next key.
		if n := len(stack); n > 0 && stack[n-1].object {
			stack[n-1].wantKey = true
		}
	}
}

// decodeSeeds are hand-written payloads at the edges of the equivalence
// rule, each with the verdict encoding/json gives it (duplicates: the
// decoder's).
var decodeSeeds = []struct {
	name    string
	payload string
	ok      bool
}{
	{"empty object", `{}`, true},
	{"top-level null", `null`, true},
	{"whitespace around", " \t\r\n{ \"trial\" : 3 , \"seed\":\n-4 }\n ", true},
	{"empty input", ``, false},
	{"top-level array", `[]`, false},
	{"top-level string", `"x"`, false},
	{"trailing garbage", `{"trial":1} x`, false},
	{"second object", `{"trial":1}{}`, false},
	{"trailing comma", `{"trial":1,}`, false},
	{"unterminated", `{"trial":1`, false},
	{"key without colon", `{"trial" 1}`, false},
	{"null key", `{null:1}`, false},

	{"null everywhere", `{"trial":null,"seed":null,"config_hash":null,"headline":null,"vstart_ns":null,"vend_ns":null,"events":null,"metrics":null,"spans":null}`, true},
	{"null in nested fields", `{"headline":{"a":null},"events":[null,{"label":null,"sent_proto":null,"capture_proto":null,"dst_name":null,"delay_ns":null}],` +
		`"metrics":[null,{"Name":null,"Help":null,"Kind":null,"LabelName":null,"Value":null,"Children":[null,{"Label":null,"Value":null}],"Hist":null},` +
		`{"Hist":{"Bounds":[null,1],"Counts":[null,2],"Sum":null,"Count":null}}],"spans":[null,{"Name":null,"Count":null,"Events":null,"Total":null}]}`, true},
	{"empty containers", `{"headline":{},"events":[],"metrics":[{"Children":[],"Hist":{"Bounds":[],"Counts":[]}}],"spans":[]}`, true},
	{"nul literal", `{"trial":nul}`, false},

	{"integer 1e3", `{"trial":1e3}`, false},
	{"integer 1.0", `{"seed":1.0}`, false},
	{"integer -0", `{"trial":-0,"seed":-0}`, true},
	{"int64 max", `{"seed":9223372036854775807}`, true},
	{"int64 max+1", `{"seed":9223372036854775808}`, false},
	{"int64 min", `{"vstart_ns":-9223372036854775808}`, true},
	{"int64 min-1", `{"vend_ns":-9223372036854775809}`, false},
	{"20-digit integer", `{"seed":10000000000000000000}`, false},
	{"integer as string", `{"trial":"1"}`, false},
	{"integer as bool", `{"trial":true}`, false},
	{"leading zero", `{"trial":01}`, false},
	{"bare minus", `{"trial":-}`, false},
	{"empty fraction", `{"headline":{"a":1.}}`, false},
	{"leading dot", `{"headline":{"a":.5}}`, false},
	{"empty exponent", `{"headline":{"a":1e+}}`, false},
	{"float forms", `{"headline":{"a":-0,"b":1E-7,"c":2.5e+10,"d":123456789012345678901234567890}}`, true},
	{"float overflow", `{"headline":{"a":1e400}}`, false},
	{"float negative overflow", `{"metrics":[{"Hist":{"Sum":-1e309}}]}`, false},
	{"float max", `{"metrics":[{"Hist":{"Sum":1.7976931348623157e308}}]}`, true},
	{"float underflow", `{"headline":{"a":1e-400}}`, true},
	{"float as string", `{"headline":{"a":"1"}}`, false},
	{"headline repeated key", `{"headline":{"a":1,"a":2}}`, true},

	{"case-folded keys", `{"TRIAL":1,"Config_Hash":"h","EVENTS":[{"LABEL":"a","Dst_Name":"d","DELAY_NS":5}],` +
		`"metrics":[{"name":"m","kind":2,"labelname":"l","HIST":{"bounds":[1],"counts":[1,2],"SUM":3,"count":3},"children":[{"label":"x","VALUE":1}]}],` +
		`"SPANS":[{"name":"s","count":1,"events":2,"total":5}]}`, true},
	{"unicode-folded keys", `{"metrics":[{"\u212aind":1}],"ſeed":2}`, true},
	{"escaped key", `{"tri\u0061l":7,"\u0073eed":8}`, true},
	{"unknown keys", `{"x":1,"trial":2,"y":{"a":[true,false,null,"s",-1.5e3,{}]},"events":[{"z":[[]],"label":"l"}]}`, true},
	{"unknown repeated keys", `{"x":{"a":1,"a":2},"x":3}`, true},
	{"unknown bad literal", `{"x":tru}`, false},

	{"escapes", `{"config_hash":"a\"b\\c\/d\b\f\n\r\tz"}`, true},
	{"html escapes", `{"config_hash":"\u003cscript\u003e\u0026\u2028\u2029"}`, true},
	{"non-ASCII", `{"config_hash":"ünïcödé 日本 😀","events":[{"dst_name":"Ωmega"}]}`, true},
	{"surrogate pair", `{"config_hash":"\ud83d\ude00"}`, true},
	{"lone high surrogate", `{"config_hash":"a\ud800b"}`, true},
	{"lone low surrogate", `{"config_hash":"\udc00\ud800"}`, true},
	{"surrogate then escape", `{"config_hash":"\ud800\u0041\ud800\n"}`, true},
	{"two high surrogates", `{"config_hash":"\ud800\ud800\udc00"}`, true},
	{"invalid UTF-8", "{\"config_hash\":\"a\xffb\xe2\x82\xed\xa0\x80\xc0\xaf\"}", true},
	{"invalid UTF-8 key", "{\"tri\xffal\":1}", true},
	{"encoded U+FFFD", "{\"config_hash\":\"\xef\xbf\xbd\"}", true},
	{"bad escape", `{"config_hash":"\x"}`, false},
	{"quote escape", `{"config_hash":"\'"}`, false},
	{"short u escape", `{"config_hash":"\u12"}`, false},
	{"raw control character", "{\"config_hash\":\"a\x01\"}", false},
	{"raw DEL", "{\"config_hash\":\"a\x7f\"}", true},

	{"wrong container for events", `{"events":{}}`, false},
	{"wrong container for headline", `{"headline":[]}`, false},
	{"scalar event", `{"events":[1]}`, false},
	{"hist as array", `{"metrics":[{"Hist":[]}]}`, false},

	{"duplicate field", `{"trial":1,"trial":2}`, false},
	{"duplicate folded field", `{"events":[{"label":"a"}],"EVENTS":[{"dst_name":"b"}]}`, false},
	{"duplicate nested field", `{"metrics":[{"Hist":{"Bounds":[1],"bounds":[2,3]}}]}`, false},

	{"max depth", `{"x":` + strings.Repeat("[", maxNestingDepth-1) + strings.Repeat("]", maxNestingDepth-1) + `}`, true},
	{"past max depth", `{"x":` + strings.Repeat("[", maxNestingDepth) + strings.Repeat("]", maxNestingDepth) + `}`, false},

	// Events just off the fast path's shape, each after one on it: they
	// must fall back to the generic path and decode as encoding/json does.
	{"fast-path event", afterFastEvent(fastEvent), true},
	{"fast-path zero and negative delays", afterFastEvent(`{"label":"","sent_proto":"","capture_proto":"","dst_name":"","delay_ns":0},` +
		`{"label":"b","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":-123456789012345678}`), true},
	{"event whitespace after brace", afterFastEvent(`{ "label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event whitespace after colon", afterFastEvent(`{"label": "a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event whitespace before comma", afterFastEvent(`{"label":"a" ,"sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event whitespace before brace", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5 }`), true},
	{"event reordered keys", afterFastEvent(`{"sent_proto":"tls","label":"a","capture_proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event delay first", afterFastEvent(`{"delay_ns":5,"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d"}`), true},
	{"event case-folded key", afterFastEvent(`{"label":"a","sent_proto":"dns","Capture_Proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event escaped label", afterFastEvent(`{"label":"a\u0062c","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event escaped quote in label", afterFastEvent(`{"label":"a\"c","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event escaped key", afterFastEvent(`{"\u006cabel":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event escaped name", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"\/d","delay_ns":5}`), true},
	{"event non-ASCII label", afterFastEvent(`{"label":"ü日","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event invalid UTF-8 name", afterFastEvent("{\"label\":\"a\",\"sent_proto\":\"dns\xff\",\"capture_proto\":\"http\",\"dst_name\":\"d\",\"delay_ns\":5}"), true},
	{"event control character in label", afterFastEvent("{\"label\":\"a\x01\",\"sent_proto\":\"dns\",\"capture_proto\":\"http\",\"dst_name\":\"d\",\"delay_ns\":5}"), false},
	{"event null label", afterFastEvent(`{"label":null,"sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event null name", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":null,"dst_name":"d","delay_ns":5}`), true},
	{"event null delay", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":null}`), true},
	{"null event", afterFastEvent(`null`), true},
	{"event delay -0", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":-0}`), true},
	{"event delay leading zero", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":05}`), false},
	{"event delay 19 digits", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":1234567890123456789}`), true},
	{"event delay int64 min", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":-9223372036854775808}`), true},
	{"event delay int64 max+1", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":9223372036854775808}`), false},
	{"event delay fraction", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5.0}`), false},
	{"event delay exponent", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5e2}`), false},
	{"event delay string", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":"5"}`), false},
	{"event label number", afterFastEvent(`{"label":1,"sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), false},
	{"event duplicate key", afterFastEvent(`{"label":"a","label":"b","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), false},
	{"event duplicate delay", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5,"delay_ns":6}`), false},
	{"event missing field", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","delay_ns":5}`), true},
	{"event missing delay", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d"}`), true},
	{"event extra field", afterFastEvent(`{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5,"x":[1]}`), true},
	{"event extra field first", afterFastEvent(`{"x":1,"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5}`), true},
	{"event truncated", `{"events":[` + fastEvent + `,{"label":"a","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":5`, false},
	{"event unterminated label", `{"events":[` + fastEvent + `,{"label":"a`, false},
}

// fastEvent is an event in exactly the shape json.Marshal writes.
const fastEvent = `{"label":"xk3d9","sent_proto":"dns","capture_proto":"http","dst_name":"d","delay_ns":7}`

// afterFastEvent wraps events after one fast-path event into a record.
func afterFastEvent(events string) string {
	return `{"trial":1,"events":[` + fastEvent + `,` + events + `],"seed":2}`
}

// sampleRecord is a small record touching every field, encoded by the
// store's own json.Marshal: HTML characters and non-ASCII in strings, a
// histogram, labeled children and spans.
func sampleRecord() TrialRecord {
	return TrialRecord{
		Trial:      3,
		Seed:       -42,
		ConfigHash: "<cfg&hash>",
		Headline:   map[string]float64{"captures": 159941, "ratio/Ünïcode": 0.5555555555555556, "tiny": 5e-324, "neg": -1.5},
		VStartNS:   1704067200000000000,
		VEndNS:     1709251200000000000,
		Events: []EventRecord{
			{Label: "xk3d9-abc", SentProto: "dns", CaptureProto: "http", DstName: "Open NIC", DelayNS: 1},
			{Label: "日本\u2028", SentProto: "tls", CaptureProto: "dns", DstName: "a.root", DelayNS: -7},
		},
		Metrics: []telemetry.Metric{
			{Name: "decoys", Help: "by protocol", Kind: telemetry.KindCounter, LabelName: "protocol",
				Children: []telemetry.Child{{Label: "dns", Value: 25200}, {Label: "http", Value: 26400}}},
			{Name: "delay", Help: "re-use <delay>", Kind: telemetry.KindHistogram,
				Hist: &telemetry.HistogramSnapshot{Bounds: []float64{1, 10, 86400}, Counts: []int64{1, 2, 3, 4}, Sum: 1.5e10, Count: 10}},
			{Name: "g", Kind: telemetry.KindGauge, Value: -3},
		},
		Spans: []telemetry.SpanStats{{Name: "phase:compile", Count: 1, Total: 2 * time.Second}, {Name: "phase:phase1", Count: 2, Events: 9, Total: 1843781314145469}},
	}
}

// tinyCoreRecord is trial 0 of a seed-11 tinyCore campaign (the runner
// tests' geometry) as the store wrote it: 938 events, 31 metrics, 4 spans.
func tinyCoreRecord(tb testing.TB) []byte {
	b, err := os.ReadFile("testdata/tinycore_record.json")
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestDecodeRecordSeeds(t *testing.T) {
	for _, sd := range decodeSeeds {
		t.Run(sd.name, func(t *testing.T) {
			if ok := checkDecodeMatchesJSON(t, []byte(sd.payload)); ok != sd.ok {
				t.Fatalf("accepted = %v, want %v", ok, sd.ok)
			}
		})
	}
	t.Run("sample record", func(t *testing.T) {
		payload, err := json.Marshal(sampleRecord())
		if err != nil {
			t.Fatal(err)
		}
		if !checkDecodeMatchesJSON(t, payload) {
			t.Fatal("store-encoded record refused")
		}
		rec, _, err := decodeRecord(payload, fullRead)
		if err != nil || !reflect.DeepEqual(rec, sampleRecord()) {
			t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, rec, sampleRecord())
		}
	})
	t.Run("tinyCore record", func(t *testing.T) {
		if !checkDecodeMatchesJSON(t, tinyCoreRecord(t)) {
			t.Fatal("store-written record refused")
		}
	})
}

// FuzzDecodeFrame holds the record decoder to encoding/json on arbitrary
// payloads (see checkDecodeMatchesJSON). A crasher lands in
// testdata/fuzz/FuzzDecodeFrame and belongs in the commit.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(tinyCoreRecord(f))
	sample, err := json.Marshal(sampleRecord())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	for _, sd := range decodeSeeds {
		f.Add([]byte(sd.payload))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecodeMatchesJSON(t, payload)
	})
}

// syntheticRecord is a deterministic store-replay-sized record: n events
// over 40 destination names and three protocols, a counter family, a
// histogram, a gauge and four spans.
func syntheticRecord(n int) TrialRecord {
	protos := []string{"dns", "http", "tls"}
	rec := TrialRecord{
		Trial:      7,
		Seed:       1729,
		ConfigHash: "8194057ad2e8428e6d4351c4d4f58896ae1a2bc25fcbd3e5ea5a024d59e35a68",
		Headline:   map[string]float64{},
		VStartNS:   1704067200000000000,
		VEndNS:     1709251200000000000,
		Events:     make([]EventRecord, n),
	}
	for i := 0; i < 40; i++ {
		rec.Headline[fmt.Sprintf("dest_ratio/resolver-%02d", i)] = float64(i) / 41
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range rec.Events {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rec.Events[i] = EventRecord{
			Label:        fmt.Sprintf("x%016x%06d-%05x", x, i, x>>44),
			SentProto:    protos[x%3],
			CaptureProto: protos[(x>>8)%3],
			DstName:      fmt.Sprintf("resolver-%02d", (x>>16)%40),
			DelayNS:      int64(x >> 14),
		}
	}
	rec.Metrics = []telemetry.Metric{
		{Name: "core_decoys_sent_total", Help: "decoys recorded in the send log, by protocol", LabelName: "protocol",
			Children: []telemetry.Child{{Label: "dns", Value: 25200}, {Label: "http", Value: 26400}, {Label: "tls", Value: 26400}}},
		{Name: "correlate_captures_total", Help: "honeypot captures processed by the correlator", Value: 159941},
		{Name: "correlate_delay_seconds", Help: "interval between decoy emission and unsolicited re-use", Kind: telemetry.KindHistogram,
			Hist: &telemetry.HistogramSnapshot{
				Bounds: []float64{1, 10, 60, 600, 3600, 21600, 86400, 259200, 864000},
				Counts: []int64{10143, 7390, 0, 4068, 23619, 42080, 36115, 17319, 12063, 844},
				Sum:    11520203199.548246, Count: 153641}},
		{Name: "netsim_event_queue_peak", Help: "pending events high-water mark", Kind: telemetry.KindGauge, Value: 65536},
	}
	rec.Spans = []telemetry.SpanStats{
		{Name: "phase:compile", Count: 1, Total: 2 * time.Second},
		{Name: "phase:phase1", Count: 1, Total: 1843781314145469},
		{Name: "phase:phase2", Count: 1, Events: 3733283, Total: 2592000 * time.Second},
		{Name: "phase:screen", Count: 1, Total: time.Hour},
	}
	return rec
}

// BenchmarkDecodeFrame decodes one synthetic 20,000-event frame per op,
// in full and in summary mode; scripts/check.sh gates the allocs/op of
// both.
func BenchmarkDecodeFrame(b *testing.B) {
	payload, err := json.Marshal(syntheticRecord(20000))
	if err != nil {
		b.Fatal(err)
	}
	frame := frameOf(payload)
	for _, bc := range []struct {
		name string
		mode readMode
	}{{"full", fullRead}, {"summary", summaryRead}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, ok := decodeFrame(frame, bc.mode); !ok {
					b.Fatal("frame refused")
				}
			}
		})
	}
}
