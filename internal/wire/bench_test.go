package wire

import (
	"testing"

	"shadowmeter/internal/telemetry"
)

// benchCounter registers a fresh throughput counter for one benchmark so
// the reported rate comes out of the telemetry registry rather than a
// loose loop variable — the same read path the simulator's -metrics
// export uses.
func benchCounter(name string) (*telemetry.Registry, *telemetry.Counter) {
	reg := telemetry.NewRegistry()
	return reg, reg.Counter(name, "packets processed by the benchmark loop")
}

// reportRate converts a registry counter into an ops/sec benchmark
// metric, asserting along the way that every loop iteration was counted.
func reportRate(b *testing.B, reg *telemetry.Registry, name, unit string) {
	b.Helper()
	var total int64
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			total = int64(m.Value)
		}
	}
	if total != int64(b.N) {
		b.Fatalf("registry counted %d %s, benchmark ran %d iterations", total, name, b.N)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)/secs, unit)
	}
}

func BenchmarkBuildUDP(b *testing.B) {
	reg, built := benchCounter("wire_bench_packets_built_total")
	src := Endpoint{AddrFrom(10, 0, 0, 1), 40000}
	dst := Endpoint{AddrFrom(8, 8, 8, 8), 53}
	payload := []byte("shadowmeter-probe-payload-0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := BuildUDP(src, dst, 64, uint16(i), payload)
		if err != nil {
			b.Fatal(err)
		}
		if len(raw) == 0 {
			b.Fatal("empty packet")
		}
		built.Inc()
	}
	b.StopTimer()
	reportRate(b, reg, "wire_bench_packets_built_total", "packets/sec")
}

func BenchmarkDecode(b *testing.B) {
	reg, decoded := benchCounter("wire_bench_packets_decoded_total")
	raw, err := BuildUDP(
		Endpoint{AddrFrom(10, 0, 0, 1), 40000},
		Endpoint{AddrFrom(8, 8, 8, 8), 53},
		64, 7, []byte("shadowmeter-probe-payload-0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := Decode(raw)
		if err != nil {
			b.Fatal(err)
		}
		if pkt.UDP == nil {
			b.Fatal("decoded packet lost its UDP layer")
		}
		decoded.Inc()
	}
	b.StopTimer()
	reportRate(b, reg, "wire_bench_packets_decoded_total", "packets/sec")
}

// BenchmarkChecksum sums an IPv4 header (the per-hop verify) and a
// DNS-sized UDP segment with its pseudo-header (build and deliver).
func BenchmarkChecksum(b *testing.B) {
	hdr := make([]byte, IPv4HeaderLen)
	seg := make([]byte, 75)
	for i := range seg {
		seg[i] = byte(i * 37)
	}
	src, dst := AddrFrom(10, 0, 0, 1), AddrFrom(8, 8, 8, 8)
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink += Checksum(hdr) + transportChecksum(src, dst, ProtoUDP, seg)
	}
	benchSink = sink
}

var benchSink uint16
