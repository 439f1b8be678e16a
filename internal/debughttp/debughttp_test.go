package debughttp

import (
	"encoding/json"
	"net/http/httptest"
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
)

func TestStatsEndpoint(t *testing.T) {
	var h metrics.Histogram
	h.Observe(2 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	var empty metrics.Histogram

	mux := New(Options{
		Sections: []Section{{Name: "server", Read: func() any { return map[string]int{"queries_in": 7} }}},
		Latency: func() map[string]metrics.HistogramSnapshot {
			return map[string]metrics.HistogramSnapshot{
				"stage/iterate":    h.Snapshot(),
				"stage/chain_walk": empty.Snapshot(),
			}
		},
	})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/stats", nil))
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
	mux := New(Options{Ring: ring})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries?n=2", nil))
	var got []resolve.TraceSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(got) != 2 || got[0].ID != 5 || got[1].ID != 4 {
		t.Fatalf("queries = %+v, want the 2 newest (5, 4)", got)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries?n=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bad n: status = %d, want 400", rec.Code)
	}

	// No ring configured: an empty list, not a null or a panic.
	rec = httptest.NewRecorder()
	New(Options{}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	if body := rec.Body.String(); body != "[]\n" {
		t.Errorf("no-ring body = %q, want []", body)
	}
}

// TestMeshAndBuildSections: the stats payload carries the mesh counters
// and build section when configured, and the /debug/peers route exists
// exactly when a membership source is wired in.
func TestMeshAndBuildSections(t *testing.T) {
	mux := New(Options{
		Sections: []Section{
			{Name: "build", Read: func() any { return map[string]any{"go": "go1.x", "uptime_s": 3} }},
			{Name: "server", Read: func() any { return map[string]int{} }},
			{Name: "mesh", Read: func() any { return map[string]uint64{"frames_in": 42} }},
		},
		Peers: func() any {
			return map[string]any{"self": "10.9.0.1:7946", "peers": []string{"10.9.0.2:7946"}}
		},
	})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/stats", nil))
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

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/peers", nil))
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
	mux := New(Options{Sections: []Section{{Name: "server", Read: func() any { return map[string]int{} }}}})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/peers", nil))
	if rec.Code != 404 {
		t.Errorf("/debug/peers on a meshless server = %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/stats", nil))
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["mesh"]; ok {
		t.Error("meshless stats payload still carries a mesh section")
	}
}

// TestPprofOnOwnMux: the profiler is routed by the debug mux itself.
func TestPprofOnOwnMux(t *testing.T) {
	rec := httptest.NewRecorder()
	New(Options{}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want 200 with the profile index", rec.Code)
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
	mux := New(Options{
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
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
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
