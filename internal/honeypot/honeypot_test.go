package honeypot

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"shadowmeter/internal/decoy"
	"shadowmeter/internal/dnswire"
	"shadowmeter/internal/httpwire"
	"shadowmeter/internal/identifier"
	"shadowmeter/internal/netsim"
	"shadowmeter/internal/resolversim"
	"shadowmeter/internal/tlswire"
	"shadowmeter/internal/wire"
)

var (
	t0    = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	codec = identifier.NewCodec(t0)
)

func deploy(t *testing.T) (*netsim.Network, *Deployment, *resolversim.Registry) {
	t.Helper()
	n := netsim.New(netsim.Config{Start: t0})
	registry := resolversim.NewRegistry()
	sites := []*Site{
		{Location: "US", AuthAddr: wire.MustParseAddr("198.51.100.1"), WebAddr: wire.MustParseAddr("198.51.100.2")},
		{Location: "DE", AuthAddr: wire.MustParseAddr("198.51.101.1"), WebAddr: wire.MustParseAddr("198.51.101.2")},
		{Location: "SG", AuthAddr: wire.MustParseAddr("198.51.102.1"), WebAddr: wire.MustParseAddr("198.51.102.2")},
	}
	d := Deploy(n, Config{Zone: "experiment.domain", Codec: codec}, sites, registry)
	return n, d, registry
}

func label(t *testing.T) string {
	t.Helper()
	l, err := codec.Encode(identifier.ID{Time: t0.Add(time.Hour), VP: wire.AddrFrom(1, 2, 3, 4), Dst: wire.AddrFrom(5, 6, 7, 8), TTL: 64, Nonce: 7})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestZoneDelegated(t *testing.T) {
	_, d, registry := deploy(t)
	zone, auth, ok := registry.AuthFor("x.www.experiment.domain")
	if !ok || zone != "experiment.domain" {
		t.Fatalf("delegation missing: %q %v", zone, ok)
	}
	if auth != d.Sites[0].AuthAddr {
		t.Errorf("auth = %v", auth)
	}
}

func TestDNSWildcardAnswer(t *testing.T) {
	n, d, _ := deploy(t)
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.1"))
	name := label(t) + ".www.experiment.domain"
	q := dnswire.NewQuery(9, name, dnswire.TypeA)
	payload, _ := q.Encode()
	var resp *dnswire.Message
	client.SendUDPRequest(n, wire.Endpoint{Addr: d.Sites[0].AuthAddr, Port: 53}, payload, netsim.UDPRequestOpts{
		Replier: netsim.ReplyFuncs{OnReply: func(n *netsim.Network, raw []byte) { resp, _ = dnswire.Decode(raw) }},
	})
	n.RunUntilIdle()
	if resp == nil {
		t.Fatal("no response")
	}
	if !resp.Header.AA || resp.Header.Rcode != dnswire.RcodeNoError {
		t.Errorf("header = %+v", resp.Header)
	}
	if len(resp.Answers) != 3 {
		t.Fatalf("answers = %d, want 3 (all web addrs)", len(resp.Answers))
	}
	webAddrs := map[wire.Addr]bool{}
	for _, a := range resp.Answers {
		if a.TTL != 3600 {
			t.Errorf("record TTL = %d, want 3600", a.TTL)
		}
		webAddrs[a.Addr] = true
	}
	for _, s := range d.Sites {
		if !webAddrs[s.WebAddr] {
			t.Errorf("missing web addr %v", s.WebAddr)
		}
	}
	// The arrival is logged with the identifier label extracted.
	caps := d.Log.Snapshot()
	if len(caps) != 1 {
		t.Fatalf("captures = %d", len(caps))
	}
	if caps[0].Protocol != decoy.DNS || caps[0].Domain != name || caps[0].Label == "" {
		t.Errorf("capture = %+v", caps[0])
	}
}

func TestDNSOutOfZoneRefused(t *testing.T) {
	n, d, _ := deploy(t)
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.1"))
	q := dnswire.NewQuery(9, "www.not-ours.tld", dnswire.TypeA)
	payload, _ := q.Encode()
	var rcode uint8 = 255
	client.SendUDPRequest(n, wire.Endpoint{Addr: d.Sites[0].AuthAddr, Port: 53}, payload, netsim.UDPRequestOpts{
		Replier: netsim.ReplyFuncs{OnReply: func(n *netsim.Network, raw []byte) {
			if m, err := dnswire.Decode(raw); err == nil {
				rcode = m.Header.Rcode
			}
		}},
	})
	n.RunUntilIdle()
	if rcode != dnswire.RcodeRefused {
		t.Errorf("rcode = %d, want REFUSED", rcode)
	}
	if d.Log.Len() != 0 {
		t.Error("out-of-zone query should not be logged")
	}
}

func TestHTTPCaptureAndHomepage(t *testing.T) {
	n, d, _ := deploy(t)
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.1"))
	name := label(t) + ".www.experiment.domain"

	var body []byte
	req := httpwire.NewGET(name, "/").Encode()
	client.SendTCPRequest(n, wire.Endpoint{Addr: d.Sites[1].WebAddr, Port: 80}, req, netsim.TCPRequestOpts{
		OnResponse: func(n *netsim.Network, payload []byte) { body = append([]byte(nil), payload...) },
	})
	n.RunUntilIdle()
	resp, err := httpwire.ParseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || !strings.Contains(string(resp.Body), "measurement experiment") {
		t.Errorf("homepage = %d %q", resp.StatusCode, resp.Body)
	}
	if d.m.homepageVisits.Value() != 1 {
		t.Errorf("homepage visits = %d", d.m.homepageVisits.Value())
	}

	// Enumeration path gets 404 and is logged with the path.
	req = httpwire.NewGET(name, "/admin/").Encode()
	client.SendTCPRequest(n, wire.Endpoint{Addr: d.Sites[1].WebAddr, Port: 80}, req, netsim.TCPRequestOpts{
		OnResponse: func(n *netsim.Network, payload []byte) { body = append([]byte(nil), payload...) },
	})
	n.RunUntilIdle()
	resp, err = httpwire.ParseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 404 {
		t.Errorf("enumeration path status = %d", resp.StatusCode)
	}
	caps := d.Log.Snapshot()
	if len(caps) != 2 {
		t.Fatalf("captures = %d", len(caps))
	}
	if caps[1].HTTPPath != "/admin/" || caps[1].Location != "DE" || caps[1].Protocol != decoy.HTTP {
		t.Errorf("capture = %+v", caps[1])
	}
}

func TestTLSCapture(t *testing.T) {
	n, d, _ := deploy(t)
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.1"))
	name := label(t) + ".www.experiment.domain"
	var rnd [32]byte
	ch := tlswire.NewClientHello(name, rnd)
	payload, err := ch.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	client.SendTCPRequest(n, wire.Endpoint{Addr: d.Sites[2].WebAddr, Port: 443}, payload, netsim.TCPRequestOpts{
		OnResponse: func(n *netsim.Network, resp []byte) { got = append([]byte(nil), resp...) },
	})
	n.RunUntilIdle()
	if _, err := tlswire.ParseServerHello(got); err != nil {
		t.Fatalf("no valid ServerHello: %v", err)
	}
	caps := d.Log.Snapshot()
	if len(caps) != 1 || caps[0].Protocol != decoy.TLS || caps[0].Domain != name {
		t.Fatalf("captures = %+v", caps)
	}
	if caps[0].Location != "SG" || caps[0].Label == "" {
		t.Errorf("capture = %+v", caps[0])
	}
}

func TestUnparseableCounted(t *testing.T) {
	n, d, _ := deploy(t)
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.1"))
	client.SendTCPRequest(n, wire.Endpoint{Addr: d.Sites[0].WebAddr, Port: 443}, []byte("not a clienthello"), netsim.TCPRequestOpts{Timeout: time.Second})
	n.RunUntilIdle()
	if d.m.unparseable.Value() != 1 {
		t.Errorf("unparseable = %d", d.m.unparseable.Value())
	}
}

func TestAnswerRotationSpreadsLoad(t *testing.T) {
	n, d, _ := deploy(t)
	client := netsim.NewHost(n, wire.MustParseAddr("100.64.0.1"))
	first := make(map[wire.Addr]int)
	for i := 0; i < 30; i++ {
		l, err := codec.Encode(identifier.ID{Time: t0.Add(time.Duration(i) * time.Minute), Nonce: uint16(i)})
		if err != nil {
			t.Fatal(err)
		}
		q := dnswire.NewQuery(uint16(i), l+".www.experiment.domain", dnswire.TypeA)
		payload, _ := q.Encode()
		client.SendUDPRequest(n, wire.Endpoint{Addr: d.Sites[0].AuthAddr, Port: 53}, payload, netsim.UDPRequestOpts{
			Replier: netsim.ReplyFuncs{OnReply: func(n *netsim.Network, raw []byte) {
				if m, err := dnswire.Decode(raw); err == nil && len(m.Answers) > 0 {
					first[m.Answers[0].Addr]++
				}
			}},
		})
	}
	n.RunUntilIdle()
	if len(first) < 2 {
		t.Errorf("answer rotation ineffective: %v", first)
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	log := NewLog()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				log.Append(Capture{Location: "X", Domain: "d"})
			}
		}(g)
	}
	wg.Wait()
	if log.Len() != 4000 {
		t.Errorf("Len = %d, want 4000", log.Len())
	}
	snap := log.Snapshot()
	snap[0].Location = "mutated"
	if log.Snapshot()[0].Location == "mutated" {
		t.Error("Snapshot must copy")
	}
}

func TestLogSnapshotFrom(t *testing.T) {
	log := NewLog()
	for _, d := range []string{"a", "b", "c"} {
		log.Append(Capture{Domain: d})
	}
	full := log.Snapshot()
	for i := 0; i <= 4; i++ {
		tail := log.SnapshotFrom(i)
		want := full[min(i, len(full)):]
		if len(tail) != len(want) {
			t.Fatalf("SnapshotFrom(%d) has %d captures, want %d", i, len(tail), len(want))
		}
		for k := range tail {
			if tail[k].Domain != want[k].Domain {
				t.Errorf("SnapshotFrom(%d)[%d] = %q, want %q", i, k, tail[k].Domain, want[k].Domain)
			}
		}
	}
	tail := log.SnapshotFrom(1)
	tail[0].Domain = "mutated"
	if log.Snapshot()[1].Domain == "mutated" {
		t.Error("SnapshotFrom must copy")
	}
}

// TestLogChunkBoundaries fills a log past three chunks and reads it back
// from every index that sits on or next to a chunk boundary.
func TestLogChunkBoundaries(t *testing.T) {
	log := NewLog()
	total := 3*logChunk + 17
	var want []Capture
	for i := 0; i < total; i++ {
		c := Capture{Domain: fmt.Sprintf("d%d", i), DNSType: uint16(i)}
		want = append(want, c)
		log.Append(c)
	}
	if log.Len() != total {
		t.Fatalf("Len = %d, want %d", log.Len(), total)
	}
	if got := log.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot differs from the appended sequence (len %d, want %d)", len(got), len(want))
	}
	var starts []int
	for _, b := range []int{0, logChunk, 2 * logChunk, 3 * logChunk} {
		starts = append(starts, b-1, b, b+1)
	}
	starts = append(starts[1:], total-1, total, total+5)
	for _, i := range starts {
		got := log.SnapshotFrom(i)
		if i >= total {
			if got != nil {
				t.Errorf("SnapshotFrom(%d) past the end = %d captures, want nil", i, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, want[i:]) {
			t.Errorf("SnapshotFrom(%d) = %d captures, want the %d from index %d on", i, len(got), total-i, i)
		}
	}
	if NewLog().Snapshot() != nil {
		t.Error("an empty log's Snapshot should be nil")
	}
}

// TestLogConcurrentAppendSnapshotFrom runs appenders against a reader
// tailing the log, as a live consumer would; under -race it also checks
// the chunked log's locking. Each appender's captures carry a sequence, so
// every snapshot must show each appender's captures in order.
func TestLogConcurrentAppendSnapshotFrom(t *testing.T) {
	log := NewLog()
	const writers, per = 4, logChunk + 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				log.Append(Capture{Location: fmt.Sprint(w), DNSType: uint16(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	next := make(map[string]uint16)
	read := 0
	check := func() {
		for _, c := range log.SnapshotFrom(read) {
			if c.DNSType != next[c.Location] {
				t.Fatalf("writer %s: capture %d after %d", c.Location, c.DNSType, next[c.Location])
			}
			next[c.Location]++
			read++
		}
	}
	for {
		select {
		case <-done:
			check()
			if read != writers*per || log.Len() != read {
				t.Fatalf("read %d captures, Len %d, want %d", read, log.Len(), writers*per)
			}
			return
		default:
			check()
		}
	}
}
