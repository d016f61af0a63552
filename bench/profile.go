package bench

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuShares reads a CPU profile written by runtime/pprof and returns each
// bucket's share of the sampled CPU time. A sample is charged to the
// function it was executing: the innermost frame of its leaf location,
// inlined frames included ("flat" time).
func cpuShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}

	cpu := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			cpu = i
		}
	}
	known := make(map[string]bool, len(cpuShareModules))
	for _, m := range cpuShareModules {
		known[m] = true
	}
	shares := make(map[string]float64, len(cpuShareModules))
	var total float64
	for _, s := range p.samples {
		if cpu < 0 || cpu >= len(s.values) {
			continue
		}
		v := float64(s.values[cpu])
		fn := ""
		if len(s.locs) > 0 {
			if fns := p.locations[s.locs[0]]; len(fns) > 0 {
				fn = p.str(p.functions[fns[0]])
			}
		}
		shares[bucket(fn, known)] += v
		total += v
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// bucket maps a function name to a cpu_share bucket: the repository's
// module, the event queue, the Go runtime, the rest of the standard
// library, or other (the benchmark itself and modules not listed).
func bucket(fn string, known map[string]bool) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	pkg := packageOf(fn)
	const internal = "shadowmeter/internal/"
	switch {
	case pkg == "container/heap",
		strings.HasPrefix(fn, internal+"netsim.eventHeap."),
		strings.HasPrefix(fn, internal+"netsim.(*eventHeap)."):
		return "netsim_queue"
	case strings.HasPrefix(pkg, internal):
		if m := strings.TrimPrefix(pkg, internal); known[m] {
			return m
		}
		return "other"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		pkg == "" && fn != "": // assembly routines such as aeshashbody and memeqbody
		return "runtime"
	case fn == "", pkg == "main", strings.HasPrefix(pkg, "shadowmeter"):
		return "other"
	}
	return "std"
}

// packageOf returns the import path of a symbol name such as
// "shadowmeter/internal/netsim.(*Network).Run" or "slices.Sort[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

// profile holds the parts of a pprof Profile message cpuShares reads.
type profile struct {
	sampleTypes []int64 // string index of each ValueType's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto
// (github.com/google/pprof/blob/main/proto/profile.proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(data []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(data, func(num int, wire int, b *pb) error {
		switch num {
		case profSampleType:
			var typ int64
			err := fields(b.bytes(), func(num, wire int, b *pb) error {
				if num == valueTypeType {
					typ = int64(b.varint())
				} else {
					b.skip(wire)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case profSample:
			var s sample
			err := fields(b.bytes(), func(num, wire int, b *pb) error {
				switch num {
				case sampleLocationID:
					s.locs = b.uint64s(s.locs, wire)
				case sampleValue:
					for _, v := range b.uint64s(nil, wire) {
						s.values = append(s.values, int64(v))
					}
				default:
					b.skip(wire)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(b.bytes(), func(num, wire int, b *pb) error {
				switch num {
				case locationID:
					id = b.varint()
				case locationLine:
					return fields(b.bytes(), func(num, wire int, b *pb) error {
						if num == lineFunction {
							fns = append(fns, b.varint())
						} else {
							b.skip(wire)
						}
						return nil
					})
				default:
					b.skip(wire)
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(b.bytes(), func(num, wire int, b *pb) error {
				switch num {
				case functionID:
					id = b.varint()
				case functionName:
					name = int64(b.varint())
				default:
					b.skip(wire)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(b.bytes()))
		default:
			b.skip(wire)
		}
		return nil
	})
	return p, err
}

// pb is a cursor over protobuf wire-format bytes. A malformed message
// sets err and drains the cursor.
type pb struct {
	b   []byte
	err error
}

var errMalformed = errors.New("malformed protobuf")

func (b *pb) fail() {
	b.err, b.b = errMalformed, nil
}

func (b *pb) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(b.b) == 0 {
			b.fail()
			return 0
		}
		c := b.b[0]
		b.b = b.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	b.fail()
	return 0
}

func (b *pb) bytes() []byte {
	n := b.varint()
	if n > uint64(len(b.b)) {
		b.fail()
		return nil
	}
	out := b.b[:n]
	b.b = b.b[n:]
	return out
}

// uint64s appends a repeated scalar field, packed or not.
func (b *pb) uint64s(dst []uint64, wire int) []uint64 {
	if wire != 2 {
		return append(dst, b.varint())
	}
	packed := &pb{b: b.bytes()}
	for len(packed.b) > 0 && packed.err == nil {
		dst = append(dst, packed.varint())
	}
	if packed.err != nil {
		b.fail()
	}
	return dst
}

func (b *pb) skip(wire int) {
	switch wire {
	case 0:
		b.varint()
	case 1:
		b.advance(8)
	case 2:
		b.bytes()
	case 5:
		b.advance(4)
	default:
		b.fail()
	}
}

func (b *pb) advance(n int) {
	if n > len(b.b) {
		b.fail()
		return
	}
	b.b = b.b[n:]
}

// fields calls fn for every field of a message, in order.
func fields(data []byte, fn func(num, wire int, b *pb) error) error {
	b := &pb{b: data}
	for len(b.b) > 0 {
		key := b.varint()
		if b.err != nil {
			return b.err
		}
		if err := fn(int(key>>3), int(key&7), b); err != nil {
			return err
		}
		if b.err != nil {
			return b.err
		}
	}
	return nil
}
