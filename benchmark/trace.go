package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/transport"
)

// perLayer lists the per-layer metrics in print order; BENCHMARK.json's
// per_layer names the same ones. Names are <package>.<metric>; gen is the
// generator itself, auth the rig, proc the dnscache process as /proc sees
// it, budget the sum that must explain the end-to-end service time.
var perLayer = []metricName{
	{"transport.raw_rtt_us", "us"},
	{"transport.echo_rtt_us", "us"},
	{"transport.serve_self_us", "us"},
	{"transport.exchange_us", "us"},
	{"transport.exchange_allocs", "count"},
	{"transport.shed", "count"},
	{"transport.formerr", "count"},
	{"dnswire.unpack_query_ns", "ns"},
	{"dnswire.unpack_query_allocs", "count"},
	{"dnswire.append_pack_ns", "ns"},
	{"dnswire.append_pack_allocs", "count"},
	{"dnswire.unpack_resp_ns", "ns"},
	{"guard.admit_ns", "ns"},
	{"guard.limited", "count"},
	{"guard.slipped", "count"},
	{"guard.clients_evicted", "count"},
	{"core.handle_hit_ns", "ns"},
	{"core.handle_hit_allocs", "count"},
	{"core.resolve_miss_us", "us"},
	{"core.coalesced", "count"},
	{"core.renewal_queries", "count"},
	{"core.renewals", "count"},
	{"resolve.lookup_hit_ns", "ns"},
	{"resolve.lookup_hit_allocs", "count"},
	{"resolve.lookup_miss_ns", "ns"},
	{"resolve.fetches_per_query", "ratio"},
	{"resolve.retries", "count"},
	{"resolve.budget_exhausted", "count"},
	{"resolve.quarantine_skips", "count"},
	{"resolve.fail_p99_ms", "ms"},
	{"resolve.stage.cache_lookup.mean_us", "us"},
	{"resolve.stage.chain_walk.mean_us", "us"},
	{"resolve.stage.iterate.mean_us", "us"},
	{"resolve.stage.validate_ingest.mean_us", "us"},
	{"resolve.stage.stale_fallback.mean_us", "us"},
	{"cache.get_ns", "ns"},
	{"cache.put_ns", "ns"},
	{"cache.put_allocs", "count"},
	{"cache.entries", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"auth.queries_root", "count"},
	{"auth.queries_tld", "count"},
	{"auth.queries_sld", "count"},
	{"auth.dropped_blackout", "count"},
	{"auth.upstream_per_query", "ratio"},
	{"proc.cpu_us_per_query", "us"},
	{"proc.ctx_switches_per_query", "ratio"},
	{"proc.user_cpu_share", "ratio"},
	{"proc.sat_busy", "ratio"},
	{"proc.threads", "count"},
	{"proc.rss_hwm_mb", "MiB"},
	{"gen.ceiling_qps", "1/s"},
	{"gen.headroom", "ratio"},
	{"gen.late_p90_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.fail_ratio", "ratio"},
	{"gen.retransmits", "count"},
	{"gen.p50_vs_echo", "ratio"},
	{"gen.p50_ms", "ms"},
	{"gen.p90_ms", "ms"},
	{"gen.p99_ms", "ms"},
	{"gen.sat_qps", "1/s"},
	{"echo.p50_ms", "ms"},
	{"echo.cpu_us_per_query", "us"},
	{"echo.sat_qps", "1/s"},
	{"budget.layers_sum_us", "us"},
	{"budget.e2e_service_us", "us"},
	{"budget.unattributed_us", "us"},
	{"trace.overhead_pct", "%"},
}

// floor is the generator's self-check against the echo child: what the
// generator can send and check at most, and what a round trip costs
// before dnscache does anything.
type floor struct {
	ceilingQPS float64 // closed loop against the bare socket
	rawRTT     float64 // µs, bare socket, one in flight
	echoRTT    float64 // µs, through UDPServer + the constant handler
	wireUS     float64 // µs, unpacking the query and packing that answer
	// transport.UDP.Exchange, the socket-per-fetch upstream path dnscache
	// uses: µs and allocations per exchange.
	exchangeUS, exchangeAllocs float64
}

// pingPong sends payload and waits for a reply, one at a time for dur,
// and returns the median round trip in µs.
func pingPong(addr string, payload []byte, dur time.Duration) (float64, error) {
	sock, err := dial(addr, nil)
	if err != nil {
		return 0, err
	}
	defer sock.Close()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]byte, 4096)
	var rtts []float64
	for end := time.Now().Add(dur); time.Now().Before(end); {
		sent := time.Now()
		sock.send(payload)
		sock.wait(time.Second)
		if _, ok := sock.recv(buf); !ok {
			return 0, fmt.Errorf("echo %s: no reply within a second", addr)
		}
		rtts = append(rtts, float64(time.Since(sent).Nanoseconds())/1e3)
	}
	sort.Float64s(rtts)
	return percentile(rtts, 0.5), nil
}

// measureFloor drives the echo child.
func (b *bench) measureFloor() (*floor, error) {
	echo, rawAddr, srvAddr := b.echo, b.echoRaw, b.echoSrv
	names := echoNames()
	var fl floor
	var err error
	if fl.rawRTT, err = pingPong(rawAddr, names.wires[0], time.Second/2); err != nil {
		return nil, err
	}
	if fl.echoRTT, err = pingPong(srvAddr, names.wires[0], time.Second/2); err != nil {
		return nil, err
	}
	stats, err := b.closedPhase(rawAddr, names, b.nproc, window, 2*time.Second, false, nil, func(i int) func() (uint64, bool) {
		n := uint64(i)
		return forever(func() uint64 { n++; return n % uint64(len(names.names)) })
	})
	if err != nil {
		return nil, err
	}
	if failed := stats.failed(); failed > 0 {
		return nil, fmt.Errorf("echo self-check: %d queries failed (%s)", failed, stats.outcomeString())
	}
	fl.ceilingQPS = float64(stats.outcomes[outOK]) / stats.span.Seconds()

	var scratch []byte
	ns, _ := timeOp(2000, func(int) {
		m, _ := dnswire.Unpack(names.wires[0])
		scratch, _ = echoAnswer(m).AppendPack(scratch[:0])
	})
	fl.wireUS = ns / 1e3

	// The exchanges are made by the echo child, on dnscache's CPUs, to a
	// server on the rig's: a fetch costs dnscache a hop between the two
	// halves of the machine, and would cost the rig's neighbour less.
	srv := &transport.UDPServer{Handler: transport.HandlerFunc(echoAnswer)}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	line, err := echo.command("exchange " + addr)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(line, "RESULT %g %g", &fl.exchangeUS, &fl.exchangeAllocs); err != nil {
		return nil, fmt.Errorf("echo child: %q: %w", line, err)
	}
	return &fl, echo.dead()
}

// layerResult is what a traced run reports.
type layerResult struct {
	metrics           []metric
	generatorBound    bool
	attempted, failed uint64 // legit queries of the untraced reference run
	wrong             uint64
}

// delta returns after[key] - before[key].
func delta(before, after map[string]float64, key string) float64 { return after[key] - before[key] }

// layerRun is the traced run of one workload: a short untraced reference
// run, the same run with dnscache's tracing on, the in-process replay and
// the standalone timings. It returns the per-layer metrics in perLayer
// order, with the generator's verdict and the reference run's counts.
func (b *bench) layerRun(root string, w *workload, seed int64, seconds float64, fl *floor, out io.Writer) (*layerResult, error) {
	if fl == nil {
		var err error
		if fl, err = b.measureFloor(); err != nil {
			return nil, err
		}
	}
	// Both runs last a third of an untraced one. The traced run spends it
	// all at the fixed rate: on blackout the first renewals come due 7 s
	// after the warm-up.
	fixed, sat := splitSeconds(seconds / 3)
	ref, err := b.measure(w, runPlan{seed: seed, rounds: 1, single: time.Second, fixed: fixed, sat: sat})
	if err != nil {
		return nil, err
	}
	traced, err := b.measure(w, runPlan{seed: seed, rounds: 1, fixed: fixed + sat, debug: true})
	if err != nil {
		return nil, err
	}
	rep, err := replay(w, seed, b.nproc, fixed)
	if err != nil {
		return nil, err
	}
	path, written, err := writeTrace(root, w.name, rep.spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%-9s trace: %d queries replayed, the %d spans of the first %d in %s\n", w.name, replayQueries, written, tracedQueries, path)

	L := rep.layers
	L["transport.raw_rtt_us"], L["transport.echo_rtt_us"] = fl.rawRTT, fl.echoRTT
	L["transport.serve_self_us"] = fl.echoRTT - fl.rawRTT - fl.wireUS
	L["transport.exchange_us"], L["transport.exchange_allocs"] = fl.exchangeUS, fl.exchangeAllocs

	// Counters and stage histograms: /debug/stats deltas of the traced run.
	d0, d1 := traced.debug[0], traced.debug[1]
	L["transport.shed"] = delta(d0.Guard, d1.Guard, "shed")
	L["transport.formerr"] = delta(d0.Guard, d1.Guard, "form_err")
	L["guard.limited"] = delta(d0.Guard, d1.Guard, "rate_limited")
	L["guard.slipped"] = delta(d0.Guard, d1.Guard, "slips")
	L["guard.clients_evicted"] = delta(d0.Guard, d1.Guard, "clients_evicted")
	L["core.coalesced"] = delta(d0.Server, d1.Server, "Coalesced")
	L["core.renewal_queries"] = delta(d0.Server, d1.Server, "RenewalQueries")
	L["core.renewals"] = delta(d0.Server, d1.Server, "Renewals")
	L["resolve.retries"] = delta(d0.Server, d1.Server, "Retries")
	L["resolve.budget_exhausted"] = delta(d0.Server, d1.Server, "BudgetExhausted")
	L["resolve.quarantine_skips"] = delta(d0.Server, d1.Server, "QuarantineSkips")
	if in := delta(d0.Server, d1.Server, "QueriesIn"); in > 0 {
		L["resolve.fetches_per_query"] = delta(d0.Server, d1.Server, "QueriesOut") / in
		L["cache.hit_ratio"] = delta(d0.Server, d1.Server, "CacheAnswered") / in
	}
	for _, stage := range []string{"cache_lookup", "chain_walk", "iterate", "validate_ingest", "stale_fallback"} {
		a, z := d0.Latency["stage/"+stage], d1.Latency["stage/"+stage]
		if n := z.Count - a.Count; n > 0 {
			L["resolve.stage."+stage+".mean_us"] = (z.SumMS - a.SumMS) * 1e3 / n
		}
	}
	L["cache.entries"] = d1.Cache["Entries"]

	// The rig, /proc and the generator, from the untraced reference run.
	L["resolve.fail_p99_ms"] = percentileMS(ref.fixed.darkFailLatency, 0.99)
	L["auth.queries_root"], L["auth.queries_tld"], L["auth.queries_sld"] = float64(ref.rigFixed.Root), float64(ref.rigFixed.TLD), float64(ref.rigFixed.SLD)
	L["auth.dropped_blackout"] = float64(ref.rigFixed.Dropped)
	L["auth.upstream_per_query"] = ref.upstreamPerQuery()
	client := float64(ref.clientQueries())
	L["proc.ctx_switches_per_query"] = float64(ref.ctxSwitches) / client
	if cpu := ref.serverUser + ref.serverSys; cpu > 0 {
		L["proc.user_cpu_share"] = ref.serverUser / cpu
	}
	L["proc.sat_busy"] = ref.satBusy
	L["proc.threads"] = float64(ref.last.threads)
	L["proc.rss_hwm_mb"] = ref.last.hwmKiB / 1024
	satQPS := ref.sat.okPerSecond()
	L["gen.ceiling_qps"] = fl.ceilingQPS
	L["gen.headroom"] = fl.ceilingQPS / satQPS
	L["gen.late_p90_ms"], L["gen.late_p99_ms"] = percentileMS(ref.fixed.lateness, 0.90), percentileMS(ref.fixed.lateness, 0.99)
	L["gen.fail_ratio"] = failRatio(ref.fixed.failed(), ref.fixed.attempted())
	L["gen.retransmits"] = float64(ref.resent())
	// The times behind the gated ratios, as the generator and /proc
	// measured them, and the echo child's.
	L["gen.p50_ms"], L["gen.p90_ms"], L["gen.p99_ms"] = ref.fixed.latencyMS(0.5), ref.fixed.latencyMS(0.9), ref.fixed.latencyMS(0.99)
	L["gen.sat_qps"], L["gen.p50_vs_echo"] = satQPS, ref.p50VsEcho()
	L["proc.cpu_us_per_query"] = ref.serverCPU * 1e6 / client
	L["echo.p50_ms"], L["echo.cpu_us_per_query"], L["echo.sat_qps"] = ref.refFixed.latencyMS(0.5), median(ref.refCPUs()), ref.refSat.okPerSecond()

	// The budget: what the layers add up to, against the service time a
	// lone query sees end to end. Hits pay core + Lookup, misses pay the
	// pipeline plus one Exchange per upstream fetch.
	hit, miss := 1-rep.missShare, rep.missShare
	sum := fl.rawRTT + L["transport.serve_self_us"] +
		(L["dnswire.unpack_query_ns"]+L["dnswire.append_pack_ns"]+L["guard.admit_ns"])/1e3 +
		hit*(L["core.handle_hit_ns"]+L["resolve.lookup_hit_ns"])/1e3 +
		miss*L["core.resolve_miss_us"] + L["resolve.fetches_per_query"]*L["transport.exchange_us"]
	service := ref.single.latencyMS(0.5) * 1e3
	L["budget.layers_sum_us"], L["budget.e2e_service_us"], L["budget.unattributed_us"] = sum, service, service-sum
	refP50, tracedP50 := ref.fixed.latencyMS(0.5), traced.fixed.latencyMS(0.5)
	L["trace.overhead_pct"] = (tracedP50 - refP50) / refP50 * 100

	ms := make([]metric, len(perLayer))
	for i, p := range perLayer {
		ms[i] = metric{metricName: p, value: L[p.name]}
	}
	fmt.Fprintf(out, "%-9s budget: layers_sum %.1f us + unattributed %.1f us = e2e_service %.1f us (one in flight, p50 of %d)\n",
		w.name, sum, service-sum, service, len(ref.single.samples))
	fmt.Fprintf(out, "%-9s tracing: p50 %.4f ms traced vs %.4f ms untraced at %d qps\n", w.name, tracedP50, refP50, w.rate)

	// A run the generator could not keep up with measures the generator:
	// when it cannot send twice what dnscache answered at saturation and
	// dnscache's CPUs were not busy throughout either, or when its own
	// lateness at its 90th percentile exceeds the median latency measured.
	bound := L["gen.headroom"] < 2 && ref.satBusy < 0.9 || L["gen.late_p90_ms"] > refP50
	verdict := "ok"
	if bound {
		verdict = "GENERATOR-BOUND"
	}
	fmt.Fprintf(out, "%-9s generator: ceiling %.0f qps = %.2f x sat_qps (ROADMAP asks 3), dnscache's CPUs %.0f %% busy at saturation, lateness p90 %.3f ms (p99 %.3f) vs latency p50 %.3f ms: %s\n",
		w.name, fl.ceilingQPS, L["gen.headroom"], 100*ref.satBusy, L["gen.late_p90_ms"], L["gen.late_p99_ms"], refP50, verdict)
	return &layerResult{metrics: ms, generatorBound: bound, attempted: ref.attempted(), failed: ref.failed(), wrong: ref.wrong()}, nil
}
