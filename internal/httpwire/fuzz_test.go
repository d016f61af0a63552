package httpwire

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseRequest feeds arbitrary bytes to ParseRequest, as the realnet
// honeypot does with whatever a socket delivers. ParseRequest must never
// panic, and every request it accepts must re-encode with Encode and
// re-parse to an equal Request, up to the encoder's two documented
// rewrites: an empty path is written as "/", and Content-Length is written
// as the body's length whenever the body is non-empty or the request had
// the header, and left out otherwise.
//
//	go test -run '^$' -fuzz FuzzParseRequest -fuzztime 10s ./internal/httpwire
func FuzzParseRequest(f *testing.F) {
	post := &Request{
		Method:  "POST",
		Path:    "/dns-query",
		Headers: map[string]string{"host": "doh.experiment.example", "content-type": "application/dns-message"},
		Body:    []byte{0x12, 0x34, 0x00, 0x01},
	}
	for _, seed := range [][]byte{
		NewGET("abc123.www.experiment.domain", "/").Encode(),
		NewGET("MiXeD.Example", "/path?q=1").Encode(),
		post.Encode(),
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		[]byte("GET  HTTP/1.1\r\nHost: h.example\r\n\r\nbody"),
		[]byte("GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nHOST: UPPER.example\r\nX-Custom:  spaced \r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabcdef"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: \r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort"),
		[]byte("bogus\r\n\r\n"),
		NewResponse(200, "hello").Encode(),
		nil,
	} {
		f.Add(seed)
	}
	// Over-long, high-entropy Host values in the style of tunneling and
	// scanner traffic: five 63-octet labels, a 4 KiB name, and raw
	// non-ASCII bytes.
	entropy := strings.Repeat("x9q4zk7m2vB8R0w", 300)
	labels := make([]string, 5)
	for i := range labels {
		labels[i] = entropy[i*7 : i*7+63]
	}
	for _, host := range []string{
		strings.Join(labels, "."),
		entropy[:4096],
		"\xff\xfe\xc2\xa0" + entropy[:200] + "\x80",
	} {
		f.Add(NewGET(host, "/").Encode())
	}

	// One Request reused across every input, as the servers reuse theirs.
	var reused Request
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		checkParseInto(t, &reused, data, req, err)
		if err != nil {
			return
		}
		enc := req.Encode()
		got, err := ParseRequest(enc)
		if err != nil {
			t.Fatalf("re-parsing %q (encoded from %q): %v", enc, data, err)
		}
		want := *req
		if want.Path == "" {
			want.Path = "/"
		}
		want.Headers = make(map[string]string, len(req.Headers)+1)
		for k, v := range req.Headers {
			want.Headers[k] = v
		}
		if _, had := req.Headers["content-length"]; had || len(req.Body) > 0 {
			want.Headers["content-length"] = strconv.Itoa(len(req.Body))
		} else {
			delete(want.Headers, "content-length")
		}
		if again := got.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not stable: %q, first encoding %q", again, enc)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("encode → parse changed the body of %q: %q, want %q", data, got.Body, want.Body)
		}
		got.Body, want.Body = nil, nil
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("encode → parse changed the request %q:\n got %+v\nwant %+v", data, *got, want)
		}
	})
}

// checkParseInto holds ParseRequestInto, called on a Request that earlier
// inputs already filled, to ParseRequest's verdict and fields on data.
func checkParseInto(t *testing.T, into *Request, data []byte, want *Request, wantErr error) {
	t.Helper()
	err := ParseRequestInto(into, data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("ParseRequestInto(%q) = %v, ParseRequest %v", data, err, wantErr)
	}
	if err != nil {
		return
	}
	got := *into
	if !bytes.Equal(got.Body, want.Body) || (got.Body == nil) != (want.Body == nil) {
		t.Fatalf("ParseRequestInto(%q) body %q, ParseRequest %q", data, got.Body, want.Body)
	}
	w := *want
	got.Body, w.Body = nil, nil
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("ParseRequestInto(%q):\n got %+v\nwant %+v", data, got, w)
	}
}

// FuzzEncodeGET holds the exactly sized GET encoder to the Request-based
// one it replaces on the decoy and probe paths, for any host and path.
func FuzzEncodeGET(f *testing.F) {
	f.Add("abc123.www.experiment.domain", "/")
	f.Add("MiXeD.Example", "/path?q=1")
	f.Add("", "")
	f.Add("h\r\nX-Injected: 1", "/ HTTP/1.0\r\n")
	f.Add("\xff\xfe", "/admin")
	f.Fuzz(func(t *testing.T, host, path string) {
		got, want := EncodeGET(host, path), NewGET(host, path).Encode()
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeGET(%q, %q) = %q, want %q", host, path, got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("EncodeGET(%q, %q): len %d, cap %d; the buffer should be exact", host, path, len(got), cap(got))
		}
	})
}
