package debughttp

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/mesh"
	"resilientdns/internal/metrics"
	"resilientdns/internal/persist"
	"resilientdns/internal/resolve"
	"resilientdns/internal/transport"
)

func TestStatsEndpoint(t *testing.T) {
	var h metrics.Histogram
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	var empty metrics.Histogram

	srv := start(t, Options{
		Sections: []Section{{Name: "server", Read: func() any { return map[string]int{"queries_in": 7} }}},
		Latency: func() map[string]metrics.HistogramSnapshot {
			return map[string]metrics.HistogramSnapshot{
				"stage/iterate":    h.Snapshot(),
				"stage/chain_walk": empty.Snapshot(),
			}
		},
	})

	rec := srv.get(t, "/debug/stats")
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var p struct {
		Server  map[string]int            `json:"server"`
		Latency map[string]LatencySummary `json:"latency"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if p.Server["queries_in"] != 7 {
		t.Errorf("server stats = %v", p.Server)
	}
	it, ok := p.Latency["stage/iterate"]
	if !ok || it.Count != 2 || it.MeanUS != 2000 {
		t.Errorf("stage/iterate = %+v, want count 2 mean 2000µs", it)
	}
	if _, ok := p.Latency["stage/chain_walk"]; ok {
		t.Error("empty histogram was not omitted")
	}
}

func TestQueriesEndpoint(t *testing.T) {
	ring := resolve.NewRing(8)
	for i := uint64(1); i <= 5; i++ {
		ring.Observe(resolve.TraceSummary{ID: i, Kind: "query"})
	}
	srv := start(t, Options{Ring: ring})

	rec := srv.get(t, "/debug/queries?n=2")
	var got []resolve.TraceSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(got) != 2 || got[0].ID != 5 || got[1].ID != 4 {
		t.Fatalf("queries = %+v, want the 2 newest (5, 4)", got)
	}

	rec = srv.get(t, "/debug/queries?n=bogus")
	if rec.Code != 400 {
		t.Errorf("bad n: status = %d, want 400", rec.Code)
	}

	// No ring configured: an empty list, not a null or a panic.
	rec = start(t, Options{}).get(t, "/debug/queries")
	if body := rec.Body.String(); body != "[]\n" {
		t.Errorf("no-ring body = %q, want []", body)
	}
}

// TestMeshAndBuildSections: the stats payload carries the mesh counters
// and build section when configured, and the /debug/peers route exists
// exactly when a membership source is wired in.
func TestMeshAndBuildSections(t *testing.T) {
	srv := start(t, Options{
		Sections: []Section{
			{Name: "build", Read: func() any { return map[string]any{"go": "go1.x", "uptime_s": 3} }},
			{Name: "server", Read: func() any { return map[string]int{} }},
			{Name: "mesh", Read: func() any { return map[string]uint64{"frames_in": 42} }},
		},
		Peers: func() any {
			return map[string]any{"self": "10.9.0.1:7946", "peers": []string{"10.9.0.2:7946"}}
		},
	})

	rec := srv.get(t, "/debug/stats")
	var p struct {
		Build map[string]any    `json:"build"`
		Mesh  map[string]uint64 `json:"mesh"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if p.Mesh["frames_in"] != 42 {
		t.Errorf("mesh section = %v, want frames_in 42", p.Mesh)
	}
	if p.Build["go"] != "go1.x" {
		t.Errorf("build section = %v", p.Build)
	}

	rec = srv.get(t, "/debug/peers")
	if rec.Code != 200 {
		t.Fatalf("/debug/peers status = %d", rec.Code)
	}
	var peers struct {
		Self  string   `json:"self"`
		Peers []string `json:"peers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &peers); err != nil {
		t.Fatalf("bad peers JSON: %v\n%s", err, rec.Body.String())
	}
	if peers.Self != "10.9.0.1:7946" || len(peers.Peers) != 1 {
		t.Errorf("peers payload = %+v", peers)
	}
}

// TestPeersRouteAbsentWithoutMesh: a non-mesh server must 404 the peers
// route and omit the mesh section rather than serve empty placeholders.
func TestPeersRouteAbsentWithoutMesh(t *testing.T) {
	srv := start(t, Options{Sections: []Section{{Name: "server", Read: func() any { return map[string]int{} }}}})

	rec := srv.get(t, "/debug/peers")
	if rec.Code != 404 {
		t.Errorf("/debug/peers on a meshless server = %d, want 404", rec.Code)
	}

	rec = srv.get(t, "/debug/stats")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["mesh"]; ok {
		t.Error("meshless stats payload still carries a mesh section")
	}
}

// TestPprofRoutes: the profiler's routes answer what go tool pprof and
// curl expect — gzipped protobuf profiles, the symbol handshake, the
// NUL-joined command line — and an unknown path is a 404.
func TestPprofRoutes(t *testing.T) {
	srv := start(t, Options{})
	if rec := srv.get(t, "/debug/pprof/"); rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want 200 with the profile index", rec.Code)
	}
	for _, path := range []string{"/debug/pprof/profile?seconds=1", "/debug/pprof/heap"} {
		rec := srv.get(t, path)
		zr, err := gzip.NewReader(rec.Body)
		if rec.Code != 200 || err != nil {
			t.Errorf("%s = %d, %v: want a gzipped profile (magic 1f 8b)", path, rec.Code, err)
			continue
		}
		if _, err := io.Copy(io.Discard, zr); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	if rec := srv.get(t, "/debug/pprof/symbol"); rec.Body.String() != "num_symbols: 1\n" {
		t.Errorf("symbol = %q, want num_symbols: 1", rec.Body)
	}
	pc := reflect.ValueOf(ReadRuntime).Pointer()
	resp, err := http.Post("http://"+srv.addr+"/debug/pprof/symbol", "text/plain", strings.NewReader(fmt.Sprintf("%#x", pc)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "debughttp.ReadRuntime") {
		t.Errorf("symbol POST %#x = %q, want ReadRuntime", pc, body)
	}
	if rec := srv.get(t, "/debug/pprof/cmdline"); rec.Body.String() != strings.Join(os.Args, "\x00") {
		t.Errorf("cmdline = %q, want os.Args joined by NUL", rec.Body)
	}
	for path, want := range map[string]int{
		"/debug/nope":                 404,
		"/debug/pprof/nope":           404,
		"/debug/pprof/heap?seconds=5": 400, // a delta profile
	} {
		if rec := srv.get(t, path); rec.Code != want {
			t.Errorf("%s = %d, want %d", path, rec.Code, want)
		}
	}
}

// TestSecondsBounds: a profile or trace runs 1 to 60 seconds; anything
// else is refused before it starts.
func TestSecondsBounds(t *testing.T) {
	srv := start(t, Options{})
	for _, path := range []string{"profile?seconds=0", "profile?seconds=61", "trace?seconds=0", "trace?seconds=61", "trace?seconds=x"} {
		if rec := srv.get(t, "/debug/pprof/"+path); rec.Code != 400 {
			t.Errorf("%s = %d, want 400", path, rec.Code)
		}
	}
}

// TestIdleConnectionClosed: a client that connects and says nothing gets
// a 400 at the read deadline, and the connection closes.
func TestIdleConnectionClosed(t *testing.T) {
	srv := startTimeout(t, Options{}, 200*time.Millisecond)
	begin := time.Now() // before the server can accept, so before its deadline starts
	c := srv.dial(t)
	_ = c.SetReadDeadline(begin.Add(5 * time.Second))
	reply, err := io.ReadAll(c)
	if took := time.Since(begin); err != nil || took < 200*time.Millisecond || took > 4*time.Second {
		t.Errorf("idle connection: %v after %v; want it closed at the 200ms deadline", err, took)
	}
	if !bytes.HasPrefix(reply, []byte("HTTP/1.1 400 ")) {
		t.Errorf("idle connection got %q, want a 400", reply)
	}
}

// TestOversizedHead: a request head past maxHead is answered 400 once the
// bound is reached, although its end never arrives.
func TestOversizedHead(t *testing.T) {
	srv := start(t, Options{})
	c := srv.dial(t)
	head := "GET /debug/stats HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", 9<<10)
	if _, err := c.Write([]byte(head)); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 {
		t.Errorf("9 KiB head: status %d, want 400", resp.StatusCode)
	}
}

// TestConnectionBound: with maxConns connections open, one more is
// served only once one of them ends.
func TestConnectionBound(t *testing.T) {
	srv := start(t, Options{})
	var idle []net.Conn
	for range maxConns {
		idle = append(idle, srv.dial(t))
	}
	extra := srv.dial(t)
	if _, err := extra.Write([]byte("GET /debug/stats HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = extra.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if n, err := extra.Read(make([]byte, 1)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection %d was answered (%d bytes, %v) while %d were open", maxConns+1, n, err, maxConns)
	}
	idle[0].Close()
	_ = extra.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(extra), nil)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("once a slot freed: %v, %v; want a 200", resp, err)
	}
}

// TestMethods: only GET and HEAD are served, POST only by symbol; HEAD
// announces the body it leaves out.
func TestMethods(t *testing.T) {
	srv := start(t, Options{})
	resp, err := http.Head("http://" + srv.addr + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.ContentLength != int64(srv.get(t, "/debug/stats").Body.Len()) {
		t.Errorf("HEAD = %d with Content-Length %d, want 200 and GET's length", resp.StatusCode, resp.ContentLength)
	}
	resp, err = http.Post("http://"+srv.addr+"/debug/stats", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("POST /debug/stats = %d, want 405", resp.StatusCode)
	}
}

// TestWireCompatKeys pins the keys load tools read /debug/stats and
// /debug/peers by — benchmark/trace.go and cmd/dnscache's multi-process
// mesh test decode them by string, so a renamed counter field or JSON tag
// compiles everywhere and breaks them silently. The sections are wired as
// cmd/dnscache wires them, from the real counter sets.
func TestWireCompatKeys(t *testing.T) {
	var h metrics.Histogram
	h.Observe(time.Millisecond)
	srv := start(t, Options{
		Sections: []Section{
			{Name: "server", Read: func() any { return core.Stats{} }},
			{Name: "cache", Read: func() any { return cache.Stats{} }},
			{Name: "guard", Read: func() any { return metrics.GuardCounters{} }},
			{Name: "mesh", Read: func() any { return mesh.Counters{} }},
			{Name: "persist", Read: func() any { return persist.Counters{} }},
			{Name: "runtime", Read: func() any { return ReadRuntime() }},
		},
		Latency: func() map[string]metrics.HistogramSnapshot {
			return map[string]metrics.HistogramSnapshot{"stage/iterate": h.Snapshot()}
		},
		Peers: func() any { return mesh.Snapshot{} },
	})
	get := func(path string, into any) {
		t.Helper()
		rec := srv.get(t, path)
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("%s: bad JSON: %v\n%s", path, err, rec.Body.String())
		}
	}
	requireKeys := func(where string, raw json.RawMessage, keys ...string) {
		t.Helper()
		var got map[string]float64
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s is not an object of numbers: %v\n%s", where, err, raw)
		}
		for _, k := range keys {
			if _, ok := got[k]; !ok {
				t.Errorf("%s lost key %q (has %v)", where, k, got)
			}
		}
	}

	var stats map[string]json.RawMessage
	get("/debug/stats", &stats)
	requireKeys("server", stats["server"], "QueriesIn", "QueriesOut", "CacheAnswered", "PackedAnswers", "Coalesced",
		"RenewalQueries", "Renewals", "Retries", "BudgetExhausted", "QuarantineSkips")
	requireKeys("guard", stats["guard"], "shed", "form_err", "rate_limited", "slips", "clients_evicted")
	requireKeys("mesh", stats["mesh"], "frames_in", "fetch_hits")
	requireKeys("cache", stats["cache"], "Entries")
	requireKeys("persist", stats["persist"], "snapshots", "journal_records", "recoveries")
	requireKeys("runtime", stats["runtime"], "gc_cycles", "gc_cpu_seconds", "heap_alloc_bytes", "heap_alloc_objects",
		"heap_live_bytes", "goroutines")
	var latency map[string]json.RawMessage
	if err := json.Unmarshal(stats["latency"], &latency); err != nil {
		t.Fatalf("latency: %v", err)
	}
	requireKeys(`latency["stage/iterate"]`, latency["stage/iterate"], "count", "sum_ms")

	var peers map[string]json.RawMessage
	get("/debug/peers", &peers)
	requireKeys("/debug/peers counters", peers["counters"], "frames_in", "frames_bad_mac", "frames_unconfirmed",
		"challenges_sent", "pings_sent", "ping_failures", "irr_pushes_sent", "irr_pushes_received",
		"irr_ingested", "fetches_sent", "fetch_hits", "fetches_served")
}

// TestReadRuntime: every runtime gauge is one the runtime reports, so
// none reads as the zero a missing metric would leave.
func TestReadRuntime(t *testing.T) {
	runtime.GC()
	r := ReadRuntime()
	if r.GCCycles == 0 || r.HeapAllocBytes == 0 || r.HeapAllocObjects == 0 || r.HeapLiveBytes == 0 || r.Goroutines == 0 {
		t.Errorf("runtime gauges %+v: a zero where the runtime has a value", r)
	}
}

// server is a debug endpoint on a loopback listener, served until the
// test ends; the cleanup also checks that Serve returns.
type server struct{ addr string }

func start(t *testing.T, o Options) server { return startTimeout(t, o, ioTimeout) }

func startTimeout(t *testing.T, o Options, timeout time.Duration) server {
	t.Helper()
	ln, err := transport.ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- serve(ln, o, timeout) }()
	t.Cleanup(func() {
		ln.Close()
		if err := <-done; !errors.Is(err, transport.ErrClosed) {
			t.Errorf("serve returned %v, want transport.ErrClosed", err)
		}
	})
	return server{ln.Addr().String()}
}

// response is what the tests read of a reply.
type response struct {
	Code int
	Body *bytes.Buffer
}

func (s server) get(t *testing.T, path string) response {
	t.Helper()
	resp, err := http.Get("http://" + s.addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return response{resp.StatusCode, &body}
}

// dial opens a raw connection, closed when the test ends (before the
// server's cleanup, which waits for it).
func (s server) dial(t *testing.T) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", s.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
