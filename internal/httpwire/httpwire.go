// Package httpwire implements a compact HTTP/1.1 request/response codec for
// the simulated wire. Decoy HTTP GETs, honey-website responses, and the
// path-enumeration probes emitted by shadowing exhibitors all pass through
// this codec, so on-path observers parse exactly what a DPI box would see.
package httpwire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Errors returned by the parser.
var (
	ErrMalformed  = errors.New("httpwire: malformed message")
	ErrIncomplete = errors.New("httpwire: incomplete message")
)

// Request is a parsed HTTP/1.1 request.
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string // canonical-lowercase keys
	Body    []byte
}

// Response is a parsed HTTP/1.1 response.
type Response struct {
	Proto      string
	StatusCode int
	Status     string
	Headers    map[string]string
	Body       []byte
}

// NewGET builds a GET request for path with the given Host header.
func NewGET(host, path string) *Request {
	if path == "" {
		path = "/"
	}
	return &Request{
		Method: "GET",
		Path:   path,
		Proto:  "HTTP/1.1",
		Headers: map[string]string{
			"host":       host,
			"user-agent": "shadowmeter/1.0",
			"accept":     "*/*",
			"connection": "close",
		},
	}
}

// getTail is everything after the Host value in the bytes of every NewGET
// request: its other three headers, sorted as Encode writes them.
const getTail = "\r\nAccept: */*\r\nConnection: close\r\nUser-Agent: shadowmeter/1.0\r\n\r\n"

// EncodeGET returns the bytes NewGET(host, path).Encode() does, built in
// one exactly sized buffer with no Request or header map in between: the
// encoder for decoys and probes, which send one GET each.
func EncodeGET(host, path string) []byte {
	if path == "" {
		path = "/"
	}
	b := make([]byte, 0, len("GET ")+len(path)+len(" HTTP/1.1\r\nHost: ")+len(host)+len(getTail))
	b = append(b, "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	return append(b, getTail...)
}

// Host returns the Host header.
func (r *Request) Host() string { return r.Headers["host"] }

// Header returns the named header (case-insensitive).
func (r *Request) Header(name string) string { return r.Headers[strings.ToLower(name)] }

// Encode serializes the request to wire bytes. Header order is
// deterministic (request line, host first, then sorted) so identical
// requests serialize identically.
func (r *Request) Encode() []byte {
	path := r.Path
	if path == "" {
		path = "/"
	}
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	b := make([]byte, 0, len(r.Method)+len(path)+len(proto)+4+headersSize(r.Headers)+2+len(r.Body))
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, ' ')
	b = append(b, proto...)
	b = append(b, '\r', '\n')
	b = appendHeaders(b, r.Headers, len(r.Body))
	b = append(b, '\r', '\n')
	return append(b, r.Body...)
}

// NewResponse builds a response with a body and standard headers.
func NewResponse(code int, body string) *Response {
	return &Response{
		Proto:      "HTTP/1.1",
		StatusCode: code,
		Status:     StatusText(code),
		Headers: map[string]string{
			"server":       "shadowmeter-honeypot/1.0",
			"content-type": "text/html; charset=utf-8",
			"connection":   "close",
		},
		Body: []byte(body),
	}
}

// Encode serializes the response.
func (r *Response) Encode() []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	status := r.Status
	if status == "" {
		status = StatusText(r.StatusCode)
	}
	b := make([]byte, 0, len(proto)+len(status)+16+headersSize(r.Headers)+2+len(r.Body))
	b = append(b, proto...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(r.StatusCode), 10)
	b = append(b, ' ')
	b = append(b, status...)
	b = append(b, '\r', '\n')
	b = appendHeaders(b, r.Headers, len(r.Body))
	b = append(b, '\r', '\n')
	return append(b, r.Body...)
}

// headersSize estimates the serialized header block so Encode allocates its
// buffer once.
func headersSize(headers map[string]string) int {
	n := len("Content-Length: 1234567890\r\n")
	for k, v := range headers {
		n += len(k) + len(v) + 4
	}
	return n
}

func appendHeaders(b []byte, headers map[string]string, bodyLen int) []byte {
	if host, ok := headers["host"]; ok {
		b = append(b, "Host: "...)
		b = append(b, host...)
		b = append(b, '\r', '\n')
	}
	keys := make([]string, 0, len(headers))
	for k := range headers {
		if k == "host" || k == "content-length" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = appendCanonicalHeader(b, k)
		b = append(b, ':', ' ')
		b = append(b, headers[k]...)
		b = append(b, '\r', '\n')
	}
	if bodyLen > 0 || headers["content-length"] != "" {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(bodyLen), 10)
		b = append(b, '\r', '\n')
	}
	return b
}

// appendCanonicalHeader appends a lowercase key in canonical form
// (e.g. "user-agent" -> "User-Agent") without intermediate strings.
func appendCanonicalHeader(b []byte, k string) []byte {
	up := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if up && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
		up = c == '-'
	}
	return b
}

// ParseRequest parses a serialized request. It requires the full head to be
// present; a Content-Length body may be shorter than declared, in which case
// ErrIncomplete is returned.
func ParseRequest(data []byte) (*Request, error) {
	req := new(Request)
	if err := ParseRequestInto(req, data); err != nil {
		return nil, err
	}
	return req, nil
}

// ParseRequestInto is ParseRequest for servers that parse every request
// into one reused Request: req is overwritten, and its header map is
// cleared and refilled rather than reallocated. The strings it sets are
// fresh copies or shared constants, so they stay valid after the next
// parse; the map and Body (which aliases data, as in ParseRequest) do
// not. On error req holds whatever was parsed before the failure.
func ParseRequestInto(req *Request, data []byte) error {
	head, body, err := splitHead(data)
	if err != nil {
		return err
	}
	line, rest := cutLine(head)
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := -1
	if sp1 >= 0 {
		sp2 = bytes.IndexByte(line[sp1+1:], ' ')
	}
	if sp1 < 0 || sp2 < 0 || !bytes.HasPrefix(line[sp1+1+sp2+1:], []byte("HTTP/")) {
		return fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	headers := req.Headers
	if headers == nil {
		headers = make(map[string]string, bytes.Count(rest, []byte("\r\n"))+1)
	} else {
		clear(headers)
	}
	*req = Request{
		Method:  atomString(line[:sp1], methodAtoms[:]),
		Path:    atomString(line[sp1+1:sp1+1+sp2], pathAtoms[:]),
		Proto:   atomString(line[sp1+1+sp2+1:], protoAtoms[:]),
		Headers: headers,
	}
	if err := parseHeadersInto(headers, rest); err != nil {
		return err
	}
	req.Body, err = takeBody(headers, body)
	return err
}

// ParseResponse parses a serialized response.
func ParseResponse(data []byte) (*Response, error) {
	head, body, err := splitHead(data)
	if err != nil {
		return nil, err
	}
	line, rest := cutLine(head)
	if !bytes.HasPrefix(line, []byte("HTTP/")) {
		return nil, fmt.Errorf("%w: bad status line %q", ErrMalformed, line)
	}
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 {
		return nil, fmt.Errorf("%w: bad status line %q", ErrMalformed, line)
	}
	codePart := line[sp1+1:]
	status := ""
	if sp2 := bytes.IndexByte(codePart, ' '); sp2 >= 0 {
		status = string(codePart[sp2+1:])
		codePart = codePart[:sp2]
	}
	code, err := strconv.Atoi(string(codePart))
	if err != nil {
		return nil, fmt.Errorf("%w: bad status code %q", ErrMalformed, codePart)
	}
	resp := &Response{Proto: string(line[:sp1]), StatusCode: code, Status: status}
	resp.Headers, err = parseHeaders(rest)
	if err != nil {
		return nil, err
	}
	resp.Body, err = takeBody(resp.Headers, body)
	return resp, err
}

func splitHead(data []byte) (head, body []byte, err error) {
	i := bytes.Index(data, []byte("\r\n\r\n"))
	if i < 0 {
		return nil, nil, ErrIncomplete
	}
	return data[:i], data[i+4:], nil
}

// cutLine splits head at its first CRLF (the whole head when none).
func cutLine(head []byte) (line, rest []byte) {
	if i := bytes.Index(head, []byte("\r\n")); i >= 0 {
		return head[:i], head[i+2:]
	}
	return head, nil
}

func parseHeaders(head []byte) (map[string]string, error) {
	h := make(map[string]string, bytes.Count(head, []byte("\r\n"))+1)
	if err := parseHeadersInto(h, head); err != nil {
		return nil, err
	}
	return h, nil
}

// parseHeadersInto adds the header lines of head to h.
func parseHeadersInto(h map[string]string, head []byte) error {
	for len(head) > 0 {
		var line []byte
		line, head = cutLine(head)
		if len(line) == 0 {
			continue
		}
		// A field name is at least one character (RFC 9110 §5.1); one that
		// is all whitespace would re-encode as a line with no name.
		name, val, ok := bytes.Cut(line, []byte(":"))
		if name = bytes.TrimSpace(name); !ok || len(name) == 0 {
			return fmt.Errorf("%w: bad header line %q", ErrMalformed, line)
		}
		h[lowerString(name)] = atomString(bytes.TrimSpace(val), valueAtoms[:])
	}
	return nil
}

// headerAtoms and valueAtoms form a static table (the idea behind HPACK's)
// of the header strings this package's own encoders emit. Nearly every
// message on the simulated wire is built by NewGET/NewResponse, so the
// parse hot path resolves almost all of its keys and values to these
// canonical instances instead of allocating a fresh string per header.
var headerAtoms = [...]string{
	"host", "accept", "server", "connection", "user-agent",
	"content-type", "content-length",
}

var valueAtoms = [...]string{
	"close", "*/*", "shadowmeter/1.0", "shadowmeter-honeypot/1.0",
	"text/html; charset=utf-8",
}

// methodAtoms, pathAtoms and protoAtoms do the same for the request lines
// of decoys, probes and DoH/ODoH envelopes.
var (
	methodAtoms = [...]string{"GET", "POST"}
	pathAtoms   = [...]string{"/", "/dns-query", "/odoh"}
	protoAtoms  = [...]string{"HTTP/1.1"}
)

// headerAtom case-insensitively matches a raw key against the static
// table, returning its canonical lowercase instance.
func headerAtom(b []byte) (string, bool) {
	for _, s := range &headerAtoms {
		if len(b) == len(s) && asciiEqualFold(b, s) {
			return s, true
		}
	}
	return "", false
}

// atomString returns b as a string: the matching (exact bytes) instance of
// atoms when there is one, else a fresh copy.
func atomString(b []byte, atoms []string) string {
	for _, s := range atoms {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// lowerString converts b to a lowercase string: through the static atom
// table when possible (no allocation, any input case), else skipping the
// extra copy bytes.ToLower would make when b is already lower-case ASCII.
func lowerString(b []byte) string {
	if s, ok := headerAtom(b); ok {
		return s
	}
	for i := 0; i < len(b); i++ {
		if c := b[i]; 'A' <= c && c <= 'Z' || c >= 0x80 {
			return strings.ToLower(string(b))
		}
	}
	return string(b)
}

func takeBody(headers map[string]string, body []byte) ([]byte, error) {
	cl, ok := headers["content-length"]
	if !ok {
		return body, nil
	}
	n, ok := contentLength(cl)
	if !ok {
		return nil, fmt.Errorf("%w: bad content-length %q", ErrMalformed, cl)
	}
	if len(body) < n {
		return nil, ErrIncomplete
	}
	return body[:n], nil
}

// contentLength parses a Content-Length value: one or more ASCII digits
// (RFC 9110 §8.6) whose value fits an int. ParseRequest and HostFromBytes
// both use it, so the observer tap accepts exactly the bodies the full
// parser does.
func contentLength[T string | []byte](v T) (int, bool) {
	if len(v) == 0 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(v); i++ {
		d := int(v[i]) - '0'
		if d < 0 || d > 9 || n > (math.MaxInt-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// HostFromBytes extracts the Host header of a serialized request without
// building the request struct or header map: the observer-tap fast path.
// It applies the same validation ParseRequest does — request-line shape,
// header syntax, Content-Length body completeness — so it accepts exactly
// the requests the full parser would, at one allocation (the host string).
func HostFromBytes(data []byte) (string, bool) {
	headEnd := bytes.Index(data, []byte("\r\n\r\n"))
	if headEnd < 0 {
		return "", false
	}
	head, body := data[:headEnd], data[headEnd+4:]

	// Request line: METHOD SP PATH SP HTTP/...
	lineEnd := bytes.Index(head, []byte("\r\n"))
	if lineEnd < 0 {
		lineEnd = len(head)
	}
	line := head[:lineEnd]
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 {
		return "", false
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ')
	if sp2 < 0 {
		return "", false
	}
	if !bytes.HasPrefix(line[sp1+1+sp2+1:], []byte("HTTP/")) {
		return "", false
	}

	var host, cl []byte
	hostSeen, clSeen := false, false
	rest := head[min(lineEnd+2, len(head)):]
	for len(rest) > 0 {
		var hl []byte
		if i := bytes.Index(rest, []byte("\r\n")); i >= 0 {
			hl, rest = rest[:i], rest[i+2:]
		} else {
			hl, rest = rest, nil
		}
		if len(hl) == 0 {
			continue
		}
		colon := bytes.IndexByte(hl, ':')
		if colon < 0 {
			return "", false
		}
		key := bytes.TrimSpace(hl[:colon])
		if len(key) == 0 {
			return "", false
		}
		val := bytes.TrimSpace(hl[colon+1:])
		switch {
		case len(key) == 4 && asciiEqualFold(key, "host"):
			host, hostSeen = val, true // last wins, as in the map parser
		case len(key) == 14 && asciiEqualFold(key, "content-length"):
			cl, clSeen = val, true // last wins, as in the map parser
		}
	}
	if clSeen {
		if n, ok := contentLength(cl); !ok || len(body) < n {
			return "", false // ErrMalformed or ErrIncomplete in the full parser
		}
	}
	if !hostSeen {
		return "", false
	}
	return string(host), true
}

// asciiEqualFold reports whether b case-insensitively equals the lowercase
// ASCII string s (len(b) must already equal len(s)).
func asciiEqualFold(b []byte, s string) bool {
	for i := 0; i < len(s); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// CanonicalHeader renders a lowercase header key in canonical form
// (e.g. "user-agent" -> "User-Agent").
func CanonicalHeader(k string) string {
	parts := strings.Split(k, "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + p[1:]
	}
	return strings.Join(parts, "-")
}

// StatusText maps the status codes the simulator uses to reason phrases.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 400:
		return "Bad Request"
	case 403:
		return "Forbidden"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return "Unknown"
	}
}
