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
//	                    (registered only when the mesh is enabled)
//	GET /debug/pprof/   net/http/pprof's index, profile, trace, symbol and
//	                    cmdline, for `go tool pprof http://…/debug/pprof/profile`
//
// Everything but pprof is read-only JSON assembled from snapshots: counter
// sections are atomic loads, the cache section takes shard read locks
// only, the runtime section reads runtime/metrics, and no handler sweeps
// or mutates server state.
package debughttp

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	rtmetrics "runtime/metrics"
	"strconv"

	"resilientdns/internal/metrics"
	"resilientdns/internal/resolve"
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
	// at /debug/peers. Nil leaves the route unregistered (404).
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

// New returns the debug mux.
func New(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, req *http.Request) {
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
		writeJSON(w, payload)
	})
	if o.Peers != nil {
		mux.HandleFunc("/debug/peers", func(w http.ResponseWriter, req *http.Request) {
			writeJSON(w, o.Peers())
		})
	}
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, req *http.Request) {
		n := 0 // 0 = everything retained
		if v := req.URL.Query().Get("n"); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil || parsed < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = parsed
		}
		var recent []resolve.TraceSummary
		if o.Ring != nil {
			recent = o.Ring.Recent(n)
		}
		if recent == nil {
			recent = []resolve.TraceSummary{}
		}
		writeJSON(w, recent)
	})
	// Routed here by name: this mux, not http.DefaultServeMux (which
	// no server in this process serves), is what -debug-addr exposes.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
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
	var r Runtime
	fields := []struct {
		name string
		u    *uint64
		f    *float64
	}{
		{name: "/gc/cycles/total:gc-cycles", u: &r.GCCycles},
		{name: "/cpu/classes/gc/total:cpu-seconds", f: &r.GCCPUSeconds},
		{name: "/gc/heap/allocs:bytes", u: &r.HeapAllocBytes},
		{name: "/gc/heap/allocs:objects", u: &r.HeapAllocObjects},
		{name: "/gc/heap/live:bytes", u: &r.HeapLiveBytes},
		{name: "/sched/goroutines:goroutines", u: &r.Goroutines},
	}
	samples := make([]rtmetrics.Sample, len(fields))
	for i, f := range fields {
		samples[i].Name = f.name
	}
	rtmetrics.Read(samples)
	for i, f := range fields {
		switch v := samples[i].Value; {
		case f.u != nil && v.Kind() == rtmetrics.KindUint64:
			*f.u = v.Uint64()
		case f.f != nil && v.Kind() == rtmetrics.KindFloat64:
			*f.f = v.Float64()
		}
	}
	return r
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A write error here means the client hung up; nothing to do.
	_ = enc.Encode(v)
}
