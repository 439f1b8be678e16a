// Command dnsperf load-tests a DNS server: it fires concurrent queries
// for a fixed duration and reports throughput, success rate, and latency
// percentiles. Query names come from a trace file (-trace) or a single
// repeated name (-name).
//
// Usage:
//
//	dnsperf -server 127.0.0.1:5301 -name www.example.com -duration 5s -concurrency 8
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"resilientdns/internal/debughttp"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/transport"
	"resilientdns/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dnsperf:", err)
		os.Exit(1)
	}
}

// loadNames builds the query name list from flags.
func loadNames(traceFile, name string) ([]dnswire.Name, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, err := workload.ReadTrace(f)
		if err != nil {
			return nil, err
		}
		names := make([]dnswire.Name, 0, len(tr.Queries))
		for _, q := range tr.Queries {
			names = append(names, q.Name)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("trace %s has no queries", traceFile)
		}
		return names, nil
	}
	n, err := dnswire.CanonicalName(name)
	if err != nil {
		return nil, err
	}
	return []dnswire.Name{n}, nil
}

func run() error {
	server := flag.String("server", "127.0.0.1:5301", "DNS server to load (host:port)")
	name := flag.String("name", "www.example.com", "query name when no trace is given")
	traceFile := flag.String("trace", "", "trace file supplying query names")
	duration := flag.Duration("duration", 5*time.Second, "test duration")
	concurrency := flag.Int("concurrency", 8, "concurrent query workers")
	timeout := flag.Duration("timeout", time.Second, "per-query timeout")
	unique := flag.Bool("unique", false, "prefix every query name with a unique label (cache-miss-heavy load)")
	rate := flag.Float64("rate", 0, "paced queries/s per legit worker (0 = as fast as replies allow)")
	abusers := flag.Int("abusers", 0, "abusive flooding clients: fire-and-forget workers sending unique names (forcing recursion) from -abuse-source, replies ignored")
	abuseQPS := flag.Float64("abuse-qps", 1000, "queries/s per abuser (0 = unthrottled)")
	abuseSource := flag.String("abuse-source", "127.0.0.99", "local IP the abusers bind, so the server sees them as one client address")
	debugURL := flag.String("debug-url", "", "dnscache -debug-addr base URL (e.g. http://127.0.0.1:8053); prints the server-side per-stage latency breakdown after the run")
	flag.Parse()

	names, err := loadNames(*traceFile, *name)
	if err != nil {
		return err
	}

	before, err := fetchStats(*debugURL)
	if err != nil {
		return err
	}
	if before != nil {
		printBuild(os.Stdout, before.Build)
	}

	ctx := context.Background()
	abuseSent := runAbusers(ctx, *server, names[0], *duration, *abusers, *abuseQPS, *abuseSource)
	stats := runLoad(ctx, transport.Addr(*server), names,
		*duration, *concurrency, *timeout, *unique, *rate)
	stats.print(os.Stdout)
	if *abusers > 0 {
		fmt.Printf("abuse sent:   %d (%.0f qps from %s across %d abusers)\n",
			abuseSent.Load(), float64(abuseSent.Load())/duration.Seconds(), *abuseSource, *abusers)
	}

	after, err := fetchStats(*debugURL)
	if err != nil {
		return err
	}
	printStageBreakdown(os.Stdout, before.latency(), after.latency())

	if stats.sent == 0 {
		return fmt.Errorf("no queries completed")
	}
	return nil
}

// runAbusers starts the abusive-client mix: n workers flooding the server
// with unique query names (every query forces a full recursion — the
// NXNSAttack shape) from a shared source address, never reading replies.
// It returns immediately; the returned counter accumulates sends until
// duration elapses, and the legit load runs concurrently.
func runAbusers(ctx context.Context, server string, base dnswire.Name,
	duration time.Duration, n int, qps float64, source string) *atomic.Uint64 {
	sent := &atomic.Uint64{}
	if n <= 0 {
		return sent
	}
	var interval time.Duration
	if qps > 0 {
		interval = time.Duration(float64(time.Second) / qps)
	}
	deadline := time.Now().Add(duration)
	for w := 0; w < n; w++ {
		go func(worker int) {
			laddr, err := net.ResolveUDPAddr("udp", source+":0")
			if err != nil {
				fmt.Fprintf(os.Stderr, "dnsperf: abuser source %s: %v\n", source, err)
				return
			}
			dialer := net.Dialer{LocalAddr: laddr}
			conn, err := dialer.DialContext(ctx, "udp", server)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dnsperf: abuser dial: %v\n", err)
				return
			}
			defer conn.Close()
			for i := 0; time.Now().Before(deadline); i++ {
				qname := dnswire.Name(fmt.Sprintf("a%dw%d.%s", i, worker, base))
				q := dnswire.NewQuery(uint16(i), qname, dnswire.TypeA)
				q.Flags.RecursionDesired = true
				wire, err := q.Pack()
				if err != nil {
					continue
				}
				if _, err := conn.Write(wire); err != nil {
					continue
				}
				sent.Add(1)
				if interval > 0 {
					time.Sleep(interval)
				}
			}
		}(w)
	}
	return sent
}

// debugStats is the slice of the server's /debug/stats payload dnsperf
// reads: the build/uptime section and the latency histograms.
type debugStats struct {
	Build   map[string]any                      `json:"build"`
	Latency map[string]debughttp.LatencySummary `json:"latency"`
}

// latency returns the latency map, tolerating a nil receiver (debug
// endpoint off) so the breakdown printer can treat both snapshots
// uniformly.
func (d *debugStats) latency() map[string]debughttp.LatencySummary {
	if d == nil {
		return nil
	}
	return d.Latency
}

// fetchStats reads the server's /debug/stats. An empty URL returns nil
// (the feature is off).
func fetchStats(baseURL string) (*debugStats, error) {
	if baseURL == "" {
		return nil, nil
	}
	url := strings.TrimSuffix(baseURL, "/") + "/debug/stats"
	resp, err := http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("debug endpoint: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("debug endpoint: %s returned %s", url, resp.Status)
	}
	var payload debugStats
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, fmt.Errorf("debug endpoint: %w", err)
	}
	if payload.Latency == nil {
		payload.Latency = map[string]debughttp.LatencySummary{}
	}
	return &payload, nil
}

// printBuild reports which binary the target server is running and for
// how long — catches the classic load-test footgun of benchmarking a
// stale fleet member.
func printBuild(w *os.File, build map[string]any) {
	if len(build) == 0 {
		return
	}
	var parts []string
	for _, key := range []string{"path", "version", "go", "vcs.revision", "vcs.modified"} {
		if v, ok := build[key]; ok {
			s := fmt.Sprint(v)
			if key == "vcs.revision" && len(s) > 12 {
				s = s[:12]
			}
			parts = append(parts, s)
		}
	}
	if up, ok := build["uptime_s"]; ok {
		parts = append(parts, fmt.Sprintf("up %vs", up))
	}
	fmt.Fprintf(w, "server build: %s\n", strings.Join(parts, " "))
}

// printStageBreakdown reports where the server spent resolution time
// during the run: per-pipeline-stage and per-trace-kind counts and
// latencies, deltas between the before/after snapshots. Percentiles
// come from the cumulative histograms (the server does not keep
// interval percentiles), so they reflect the server's lifetime.
func printStageBreakdown(w *os.File, before, after map[string]debughttp.LatencySummary) {
	if after == nil {
		return
	}
	fmt.Fprintf(w, "server-side stage breakdown (this run):\n")
	any := false
	for _, key := range debughttp.SortedLatencyKeys(after) {
		s := after[key]
		count := s.Count - before[key].Count
		if count == 0 {
			continue
		}
		any = true
		sumMS := s.SumMS - before[key].SumMS
		meanUS := sumMS * 1e3 / float64(count)
		fmt.Fprintf(w, "  %-22s %8d × %8.0f µs mean  (lifetime p50 %d µs, p99 %d µs)\n",
			key, count, meanUS, s.P50US, s.P99US)
	}
	if !any {
		fmt.Fprintf(w, "  (no traced work on the server during the run)\n")
	}
}

// loadStats aggregates worker results.
type loadStats struct {
	mu          sync.Mutex
	latencies   metrics.CDF
	okLatencies metrics.CDF

	sent, ok, failed uint64
	perWorker        []uint64 // queries completed by each worker
	elapsed          time.Duration
}

func (s *loadStats) record(worker int, d time.Duration, success bool) {
	atomic.AddUint64(&s.sent, 1)
	atomic.AddUint64(&s.perWorker[worker], 1)
	if success {
		atomic.AddUint64(&s.ok, 1)
	} else {
		atomic.AddUint64(&s.failed, 1)
	}
	s.mu.Lock()
	s.latencies.AddDuration(d)
	if success {
		s.okLatencies.AddDuration(d)
	}
	s.mu.Unlock()
}

func (s *loadStats) print(w *os.File) {
	qps := float64(s.sent) / s.elapsed.Seconds()
	fmt.Fprintf(w, "queries:      %d (%.0f qps)\n", s.sent, qps)
	fmt.Fprintf(w, "success:      %d (%.2f%%)\n", s.ok, 100*float64(s.ok)/float64(max64(s.sent, 1)))
	fmt.Fprintf(w, "failed:       %d\n", s.failed)
	fmt.Fprintf(w, "latency p50:  %.3f ms\n", 1000*s.latencies.Quantile(0.50))
	fmt.Fprintf(w, "latency p95:  %.3f ms\n", 1000*s.latencies.Quantile(0.95))
	fmt.Fprintf(w, "latency p99:  %.3f ms\n", 1000*s.latencies.Quantile(0.99))
	// Upstream (successful-query) latency: failed queries sit at the
	// client timeout and would mask what the resolver actually delivered.
	if s.ok > 0 {
		fmt.Fprintf(w, "ok p50:       %.3f ms\n", 1000*s.okLatencies.Quantile(0.50))
		fmt.Fprintf(w, "ok p99:       %.3f ms\n", 1000*s.okLatencies.Quantile(0.99))
	}
	// Per-worker throughput: with a concurrent server every worker should
	// sustain roughly the single-worker rate; a serialized server shows
	// per-worker qps collapsing as 1/concurrency.
	var minQ, maxQ uint64
	for i, n := range s.perWorker {
		wqps := float64(n) / s.elapsed.Seconds()
		fmt.Fprintf(w, "worker %2d:    %d (%.0f qps)\n", i, n, wqps)
		if i == 0 || n < minQ {
			minQ = n
		}
		if n > maxQ {
			maxQ = n
		}
	}
	if len(s.perWorker) > 1 && minQ > 0 {
		fmt.Fprintf(w, "worker spread: min %.0f qps, max %.0f qps (max/min %.2f)\n",
			float64(minQ)/s.elapsed.Seconds(), float64(maxQ)/s.elapsed.Seconds(),
			float64(maxQ)/float64(minQ))
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// runLoad drives the workers and returns aggregated statistics. With
// unique set, every query name gets a distinct leading label so each
// query forces a full resolution (cache-miss-heavy load). A non-zero
// rate paces each worker to that many queries/s, modelling legitimate
// clients that query at their own tempo rather than as fast as the
// server answers.
func runLoad(ctx context.Context, server transport.Addr, names []dnswire.Name,
	duration time.Duration, concurrency int, timeout time.Duration, unique bool, rate float64) *loadStats {
	stats := &loadStats{perWorker: make([]uint64, concurrency)}
	deadline := time.Now().Add(duration)
	// Fresh binding, not a reassignment of the parameter: the load
	// window is the deadline for every in-flight query, and the fresh
	// name is how ctxdeadline sees that the parameter never reaches an
	// exchange unbounded.
	lctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			tr := &transport.UDP{Timeout: timeout}
			for i := worker; time.Now().Before(deadline); i += concurrency {
				qname := names[i%len(names)]
				if unique {
					qname = dnswire.Name(fmt.Sprintf("q%d.%s", i, qname))
				}
				q := dnswire.NewQuery(uint16(i), qname, dnswire.TypeA)
				q.Flags.RecursionDesired = true
				start := time.Now()
				resp, err := tr.Exchange(lctx, server, q)
				success := err == nil && resp.RCode != dnswire.RCodeServFail
				stats.record(worker, time.Since(start), success)
				if sleep := interval - time.Since(start); interval > 0 && sleep > 0 {
					time.Sleep(sleep)
				}
			}
		}(w)
	}
	wg.Wait()
	stats.elapsed = duration
	return stats
}
