// Package debughttp serves the resolver's introspection endpoints over
// HTTP for operators and load tools (benchmark/trace.go):
//
//	GET /debug/stats    one JSON object per configured section — for
//	                    cmd/dnscache: build, cache, runtime, server,
//	                    guard, mesh (when enabled), persist (when
//	                    enabled) — plus "latency", the per-stage /
//	                    per-kind summaries from finished traces
//	GET /debug/queries  the most recent trace summaries, newest first
//	                    (?n=K limits the count)
//	GET /debug/peers    the cooperative mesh's membership snapshot
//	                    (served only when the mesh is enabled; 404 otherwise)
//	GET /debug/pprof/   the profile index, each named profile (?debug=N,
//	                    ?gc=1 for heap), profile and trace (?seconds=N,
//	                    1–60), cmdline, and symbol (GET or POST), for
//	                    `go tool pprof http://…/debug/pprof/profile`
//
// The responder is a small HTTP/1.1 server of its own rather than
// net/http, which with crypto/tls and x509 would double the binary for an
// endpoint most deployments never open. Each connection carries one
// request (GET, HEAD, or POST for symbol) and gets one reply with a
// Content-Length, then is closed. It is bounded: at most maxConns
// connections are served at once (the rest wait in the listen backlog), a
// request head may be at most maxHead bytes, and reading the request and
// writing the reply each get ioTimeout.
//
// Everything but pprof is read-only JSON assembled from snapshots: counter
// sections are atomic loads, the cache section takes shard read locks
// only, the runtime section reads runtime/metrics, and no route sweeps or
// mutates server state.
package debughttp

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"resilientdns/internal/metrics"
	"resilientdns/internal/resolve"
	"resilientdns/internal/transport"
)

// Section is one named object of the /debug/stats payload.
type Section struct {
	// Name is the section's key in the payload.
	Name string
	// Read returns the section's current value: a counter-set snapshot,
	// or anything else encoding/json can render.
	Read func() any
}

// Options wires the endpoint to a running server.
type Options struct {
	// Sections are rendered each under its Name. A subsystem that is
	// switched off is simply not listed.
	Sections []Section
	// Latency returns the per-stage / per-kind histograms
	// (Resolver.LatencySnapshots), rendered as the "latency" section.
	// Nil omits it.
	Latency func() map[string]metrics.HistogramSnapshot
	// Peers returns the mesh membership snapshot (mesh.Snapshot) served
	// at /debug/peers. Nil leaves the route unserved (404).
	Peers func() any
	// Ring retains recent trace summaries for /debug/queries.
	Ring *resolve.Ring
}

// LatencySummary is one histogram reduced to the numbers an operator
// reads first.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUS int64   `json:"mean_us"`
	P50US  int64   `json:"p50_us"`
	P95US  int64   `json:"p95_us"`
	P99US  int64   `json:"p99_us"`
	SumMS  float64 `json:"sum_ms"`
}

const (
	maxConns  = 8
	maxHead   = 8 << 10
	maxBody   = 64 << 10 // a symbol POST: a few thousand addresses
	ioTimeout = 10 * time.Second
	textPlain = "text/plain; charset=utf-8"
)

// Serve answers debug requests on ln until Accept fails, then waits for
// the connections still being served and returns Accept's error:
// transport.ErrClosed once ln is closed.
func Serve(ln transport.Listener, o Options) error { return serve(ln, o, ioTimeout) }

func serve(ln transport.Listener, o Options, timeout time.Duration) error {
	// A slot is taken before each Accept and given back when its
	// connection is done, so taking every slot waits for all of them.
	slots := make(chan struct{}, maxConns)
	for {
		slots <- struct{}{}
		conn, err := ln.Accept()
		if err != nil {
			for range maxConns - 1 {
				slots <- struct{}{}
			}
			return err
		}
		go func() {
			o.serveConn(conn, timeout)
			<-slots
		}()
	}
}

func (o Options) serveConn(conn transport.Conn, timeout time.Duration) {
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(timeout)) // fails only once conn is closed
	method, u, body, err := readRequest(conn)
	status, ctype, out := textReply(405, "method not allowed")
	switch {
	case err != nil:
		// Also a client that went quiet or hung up: the write fails or
		// goes unread, and the connection is closed either way.
		status, ctype, out = textReply(400, err.Error())
	case method == "GET" || method == "HEAD" || method == "POST" && u.Path == "/debug/pprof/symbol":
		status, ctype, out = o.route(u, body)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	head := fmt.Appendf(nil, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		status, statusText[status], ctype, len(out))
	if method != "HEAD" { // HEAD's body is announced in Content-Length all the same
		head = append(head, out...)
	}
	_, _ = conn.Write(head) // a failed write means the client is gone
}

var statusText = map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
	500: "Internal Server Error"}

// readRequest reads one request: a head of at most maxHead bytes, then the
// body of at most maxBody bytes its Content-Length announces.
func readRequest(conn io.Reader) (method string, u *url.URL, body []byte, err error) {
	lr := &io.LimitedReader{R: conn, N: maxHead}
	br := bufio.NewReader(lr)
	var head []string
	for len(head) == 0 || head[len(head)-1] != "" {
		line, err := br.ReadString('\n')
		if err != nil && lr.N == 0 {
			return "", nil, nil, errors.New("request head too large")
		}
		if err != nil {
			return "", nil, nil, err
		}
		head = append(head, strings.TrimRight(line, "\r\n"))
	}
	method, rest, _ := strings.Cut(head[0], " ")
	target, proto, _ := strings.Cut(rest, " ")
	if u, err = url.ParseRequestURI(target); err != nil || !strings.HasPrefix(proto, "HTTP/1.") {
		return "", nil, nil, errors.New("malformed request line")
	}
	length := 0
	for _, h := range head[1:] {
		if name, v, _ := strings.Cut(h, ":"); strings.EqualFold(name, "Content-Length") {
			if length, err = strconv.Atoi(strings.TrimSpace(v)); err != nil || length < 0 || length > maxBody {
				return "", nil, nil, errors.New("bad or too large Content-Length")
			}
		}
	}
	lr.N = maxBody
	body = make([]byte, length)
	_, err = io.ReadFull(br, body)
	return method, u, body, err
}

// route answers a request with a status, a content type and a body. The
// pprof routes answer what net/http/pprof's do, from runtime/pprof and
// runtime/trace, except for delta profiles (?seconds= on a named
// profile): those need the standard library's internal profile merger,
// and are answered 400.
func (o Options) route(u *url.URL, body []byte) (int, string, []byte) {
	q := u.Query()
	switch p := u.Path; {
	case p == "/debug/stats":
		payload := make(map[string]any, len(o.Sections)+1)
		for _, sec := range o.Sections {
			payload[sec.Name] = sec.Read()
		}
		if o.Latency != nil {
			latency := make(map[string]LatencySummary)
			for key, s := range o.Latency() {
				if s.Count == 0 {
					continue // never-exercised stages just add noise
				}
				latency[key] = LatencySummary{
					Count:  s.Count,
					MeanUS: s.Mean().Microseconds(),
					P50US:  s.Quantile(0.50).Microseconds(),
					P95US:  s.Quantile(0.95).Microseconds(),
					P99US:  s.Quantile(0.99).Microseconds(),
					SumMS:  float64(s.Sum.Microseconds()) / 1e3,
				}
			}
			payload["latency"] = latency
		}
		return jsonReply(payload)
	case p == "/debug/queries":
		n, err := strconv.Atoi(cmp.Or(q.Get("n"), "0")) // 0 = everything retained
		if err != nil || n < 0 {
			return textReply(400, "bad n")
		}
		var recent []resolve.TraceSummary
		if o.Ring != nil {
			recent = o.Ring.Recent(n)
		}
		if recent == nil {
			recent = []resolve.TraceSummary{}
		}
		return jsonReply(recent)
	case p == "/debug/peers" && o.Peers != nil:
		return jsonReply(o.Peers())
	case p == "/debug/pprof/":
		b := bytes.NewBufferString("profile?seconds=30\ntrace?seconds=1\ncmdline\nsymbol\n")
		for _, prof := range pprof.Profiles() {
			fmt.Fprintf(b, "%d %s?debug=1\n", prof.Count(), prof.Name())
		}
		return 200, textPlain, b.Bytes()
	case p == "/debug/pprof/cmdline":
		return 200, textPlain, []byte(strings.Join(os.Args, "\x00"))
	case p == "/debug/pprof/symbol":
		// "num_symbols: 1" says symbols are served, then one "addr name"
		// line per '+'-separated address that resolves: a POST's body, or
		// a GET's query.
		b := bytes.NewBufferString("num_symbols: 1\n")
		for _, word := range strings.Split(cmp.Or(string(body), u.RawQuery), "+") {
			pc, _ := strconv.ParseUint(word, 0, 64)
			if f := runtime.FuncForPC(uintptr(pc)); f != nil {
				fmt.Fprintf(b, "%#x %s\n", pc, f.Name())
			}
		}
		return 200, textPlain, b.Bytes()
	case p == "/debug/pprof/profile", p == "/debug/pprof/trace":
		def, start, stop := "30", pprof.StartCPUProfile, pprof.StopCPUProfile
		if p == "/debug/pprof/trace" {
			def, start, stop = "1", trace.Start, trace.Stop
		}
		n, err := strconv.Atoi(cmp.Or(q.Get("seconds"), def))
		if err != nil || n < 1 || n > 60 {
			return textReply(400, "seconds must be an integer from 1 to 60")
		}
		var b bytes.Buffer
		if err := start(&b); err != nil {
			return textReply(500, err.Error())
		}
		time.Sleep(time.Duration(n) * time.Second)
		stop()
		return 200, "application/octet-stream", b.Bytes()
	default:
		prof := pprof.Lookup(strings.TrimPrefix(p, "/debug/pprof/"))
		switch {
		case prof == nil || !strings.HasPrefix(p, "/debug/pprof/"):
			return textReply(404, "404 page not found")
		case q.Get("seconds") != "":
			return textReply(400, "delta profiles (?seconds= on a named profile) are not supported")
		}
		if gc, _ := strconv.Atoi(q.Get("gc")); gc > 0 && prof.Name() == "heap" {
			runtime.GC()
		}
		debug, _ := strconv.Atoi(q.Get("debug"))
		var b bytes.Buffer
		_ = prof.WriteTo(&b, debug) // only its writer can fail it, and a bytes.Buffer does not
		if debug != 0 {
			return 200, textPlain, b.Bytes()
		}
		return 200, "application/octet-stream", b.Bytes()
	}
}

// Runtime is the Go runtime's share of a live server, read from
// runtime/metrics: what the garbage collector has cost so far, what the
// heap holds, and how many goroutines run. HeapAllocObjects and
// HeapAllocBytes over the server's QueriesIn are its allocation per query.
type Runtime struct {
	GCCycles         uint64  `json:"gc_cycles"`
	GCCPUSeconds     float64 `json:"gc_cpu_seconds"`
	HeapAllocBytes   uint64  `json:"heap_alloc_bytes"`
	HeapAllocObjects uint64  `json:"heap_alloc_objects"`
	HeapLiveBytes    uint64  `json:"heap_live_bytes"`
	Goroutines       uint64  `json:"goroutines"`
}

// ReadRuntime samples the Go runtime. A metric the runtime does not
// report reads as zero.
func ReadRuntime() Runtime {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/live:bytes"}, {Name: "/sched/goroutines:goroutines"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	r := Runtime{GCCycles: u(0), HeapAllocBytes: u(1), HeapAllocObjects: u(2), HeapLiveBytes: u(3), Goroutines: u(4)}
	if s[5].Value.Kind() == rtmetrics.KindFloat64 {
		r.GCCPUSeconds = s[5].Value.Float64()
	}
	return r
}

func jsonReply(v any) (int, string, []byte) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // snapshots of our own types: only a bug can fail it
	return 200, "application/json", b.Bytes()
}

func textReply(status int, msg string) (int, string, []byte) {
	return status, textPlain, []byte(msg + "\n")
}
