package httpwire

import "testing"

// refHost is the full-parser reference HostFromBytes must agree with.
func refHost(data []byte) (string, bool) {
	req, err := ParseRequest(data)
	if err != nil || req.Host() == "" {
		return "", false
	}
	return req.Host(), true
}

// TestHostFromBytesMatchesParseRequest pins the sniffing fast path to the
// full parser across well-formed requests, bodied POSTs, and every
// truncation of each.
func TestHostFromBytesMatchesParseRequest(t *testing.T) {
	var corpus [][]byte
	corpus = append(corpus, NewGET("abc.www.experiment.example", "/").Encode())
	corpus = append(corpus, NewGET("MiXeD.Example", "/path?q=1").Encode())
	post := &Request{
		Method: "POST",
		Path:   "/dns-query",
		Headers: map[string]string{
			"host":         "doh.experiment.example",
			"content-type": "application/dns-message",
		},
		Body: []byte{0x12, 0x34, 0x00, 0x01},
	}
	corpus = append(corpus, post.Encode())
	corpus = append(corpus,
		[]byte("GET / HTTP/1.1\r\n\r\n"),                        // no host
		[]byte("GET / HTTP/1.1\r\nHost: h.example\r\n\r\nbody"), // trailing bytes
		[]byte("GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n"),  // duplicate host
		[]byte("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),           // missing colon
		[]byte("GET / HTTP/1.1\r\nHost: h\r\n \t: v\r\n\r\n"),   // blank name
		[]byte("GET / HTTP/1.1\r\nHost: h\r\nContent-Length: +0\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nHost: h\r\nContent-Length: x\r\nContent-Length: 1\r\n\r\nb"),
		[]byte("GET / HTTP/1.1\r\nHost: h\r\nContent-Length: 1\r\nContent-Length: 3\r\n\r\nb"),
		[]byte("GET / HTTP/1.1\r\nHost: h\r\nContent-Length: 9223372036854775808\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nHost: h\r\nContent-Length: 18446744073709551617\r\n\r\n"),
		[]byte("bogus\r\n\r\n"),
		NewResponse(200, "hello").Encode(), // responses must not sniff
		nil,
	)
	for _, full := range corpus {
		for end := 0; end <= len(full); end++ {
			data := full[:end]
			wantHost, wantOK := refHost(data)
			gotHost, gotOK := HostFromBytes(data)
			if gotHost != wantHost || gotOK != wantOK {
				t.Fatalf("HostFromBytes(%q) = (%q, %v), ParseRequest path = (%q, %v)",
					data, gotHost, gotOK, wantHost, wantOK)
			}
		}
	}
}

func BenchmarkHostFromBytes(b *testing.B) {
	data := NewGET("abc123def456.www.experiment.example", "/").Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := HostFromBytes(data); !ok {
			b.Fatal("sniff failed")
		}
	}
}
