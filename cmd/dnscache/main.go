// Command dnscache runs the paper's resilient caching server over UDP: an
// iterative resolver whose cache implements TTL refresh, credit-based TTL
// renewal of infrastructure records, and the 7-day TTL clamp.
//
// Usage:
//
//	dnscache -listen 127.0.0.1:5301 -root 198.41.0.4:53 \
//	    -refresh -renewal a-lfu -credit 5
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	rtdebug "runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/debughttp"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/guard"
	"resilientdns/internal/mesh"
	"resilientdns/internal/metrics"
	"resilientdns/internal/persist"
	"resilientdns/internal/resolve"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// jsonLogSink appends one JSON line per finished trace to the query
// log. Observe is called from the listener's read loops and from query,
// flight, renewal, and prefetch goroutines concurrently, so it only
// encodes into memory: the file is written when the buffer fills, on
// Flush (once a second) and on Close.
type jsonLogSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	f   *os.File
}

func newJSONLogSink(path string) (*jsonLogSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	return &jsonLogSink{w: w, enc: json.NewEncoder(w), f: f}, nil
}

func (s *jsonLogSink) Observe(ts resolve.TraceSummary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A full disk should not take the resolver down with it.
	_ = s.enc.Encode(ts)
}

func (s *jsonLogSink) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.w.Flush() // as in Observe; Close reports what stays unwritten
}

func (s *jsonLogSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.w.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// buildInfo is the /debug/stats "build" section: module version, VCS
// revision, Go version, and process uptime — what an operator needs to
// tell which binary a fleet member is actually running.
func buildInfo(start time.Time) any {
	out := map[string]any{
		"go":       runtime.Version(),
		"uptime_s": int64(time.Since(start) / time.Second),
	}
	if bi, ok := rtdebug.ReadBuildInfo(); ok {
		out["path"] = bi.Main.Path
		if bi.Main.Version != "" {
			out["version"] = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision", "vcs.time", "vcs.modified":
				out[s.Key] = s.Value
			}
		}
	}
	return out
}

// statsSections lists what /debug/stats serves: the build identity, the
// cache occupancy, the Go runtime's gauges, then the counter sets.
// Occupancy comes from Cache().Stats(), which takes shard read locks only
// and leaves expired entries to -sweep; the sweeping CacheStats() has no
// place on a path an operator polls.
func statsSections(start time.Time, cs *core.CachingServer, counterSets []debughttp.Section) []debughttp.Section {
	return append([]debughttp.Section{
		{Name: "build", Read: func() any { return buildInfo(start) }},
		{Name: "cache", Read: func() any { return cs.Cache().Stats() }},
		{Name: "runtime", Read: func() any { return debughttp.ReadRuntime() }},
	}, counterSets...)
}

// every calls f on each tick of period d until ctx is done: the mesh
// probe, the -sweep pass, the query-log flush and the -stats line all run
// on it.
func every(ctx context.Context, d time.Duration, f func(now time.Time)) {
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			f(now)
		}
	}
}

// counterLine renders a counter-set snapshot as "name=value name=value …".
func counterLine(snapshot any) string {
	var fields []string
	for _, c := range metrics.Pairs(snapshot) {
		fields = append(fields, fmt.Sprintf("%s=%d", c.Name, c.Value))
	}
	return strings.Join(fields, " ")
}

// counterReport renders every counter set under its /debug/stats name:
// the server's first, under label and with the cache occupancy after it,
// then one "name: counters" per other set, the sets joined by sep.
func counterReport(label string, cst cache.Stats, sets []debughttp.Section, sep string) string {
	parts := []string{fmt.Sprintf("%s: %s cached: zones=%d records=%d stale=%d",
		label, counterLine(sets[0].Read()), cst.Zones, cst.Records, cst.StaleEntries)}
	for _, set := range sets[1:] {
		parts = append(parts, set.Name+": "+counterLine(set.Read()))
	}
	return strings.Join(parts, sep)
}

// upstreamAddr maps a learned name-server address to the address the
// transport dials: the address with port, an IPv6 one in brackets.
func upstreamAddr(port uint16) func(netip.Addr) transport.Addr {
	return func(a netip.Addr) transport.Addr { return transport.Addr(netip.AddrPortFrom(a, port).String()) }
}

// atExit runs once a clean run has drained, with the number of queries
// it took in; the profile build (profile.go) sets it.
var atExit = func(queriesIn uint64) {}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dnscache:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:5301", "UDP address to serve stub resolvers on")
	roots := flag.String("root", "", "comma-separated root server addresses (host:port), required")
	refresh := flag.Bool("refresh", false, "enable TTL refresh of infrastructure records")
	renewal := flag.String("renewal", "", "TTL renewal policy: lru, lfu, a-lru, a-lfu (empty = off)")
	credit := flag.Float64("credit", 3, "renewal credit c")
	maxTTL := flag.Duration("max-ttl", 7*24*time.Hour, "cache TTL clamp")
	negTTL := flag.Duration("negative-ttl", 0, "negative-answer cache TTL (0 = off)")
	serveStale := flag.Duration("serve-stale", 0, "serve expired records for this long when servers are unreachable (0 = off)")
	prefetch := flag.Bool("prefetch", false, "refresh hot answers in the last 10% of their TTL, on a background worker pool")
	debugAddr := flag.String("debug-addr", "", "HTTP address for /debug/stats and /debug/queries (empty = off; enables per-query tracing)")
	queryLog := flag.String("query-log", "", "append one JSON line per finished query trace to this file (empty = off; enables per-query tracing)")
	port := flag.Int("upstream-port", 53, "port appended to learned name-server addresses")
	maxInflight := flag.Int("max-inflight", transport.DefaultMaxInflight, "max queries handled concurrently per listener")
	statsEvery := flag.Duration("stats", time.Minute, "stats reporting interval (0 = off)")
	minTimeout := flag.Duration("min-timeout", 200*time.Millisecond, "lower clamp on the adaptive per-attempt upstream timeout")
	maxTimeout := flag.Duration("max-timeout", 3*time.Second, "upper clamp on the adaptive per-attempt upstream timeout")
	quarantine := flag.Duration("quarantine", 5*time.Second, "base quarantine after an upstream failure, doubling per consecutive failure (negative = off)")
	retryBudget := flag.Int("retry-budget", 16, "max upstream attempts one resolution may spend across all failovers (0 = unlimited)")
	persistDir := flag.String("persist-dir", "", "directory for crash-safe cache persistence: snapshot + journal, replayed on startup (empty = off)")
	snapshotEvery := flag.Duration("snapshot-every", 5*time.Minute, "interval between full cache snapshots when -persist-dir is set (0 = journal only)")
	sweep := flag.Duration("sweep", time.Minute, "interval between background sweeps of expired cache and negative-cache entries (0 = lazy expiry only)")
	clientRPS := flag.Float64("client-rps", 0, "per-client-address UDP query rate limit in queries/s (0 = off)")
	slip := flag.Int("slip", 2, "answer every Nth rate-limited UDP query with a minimal TC=1 reply instead of dropping it (0 = never; needs -client-rps)")
	maxClients := flag.Int("max-clients", 65536, "rate-limiter client-slot bound; least recently seen clients are evicted past it")
	overloadCacheOnly := flag.Bool("overload-cache-only", false, "answer queries arriving while all -max-inflight slots are busy from cache/stale data only, instead of dropping them")
	meshListen := flag.String("mesh-listen", "", "UDP address for the cooperative resolver mesh (empty = mesh off)")
	meshPeers := flag.String("mesh-peers", "", "comma-separated mesh peer addresses (IP:port), the fleet's membership, with -mesh-listen")
	meshKey := flag.String("mesh-key", "", "shared fleet HMAC key authenticating mesh frames (required with -mesh-listen)")
	flag.Parse()
	start := time.Now()

	if *roots == "" {
		return fmt.Errorf("-root is required (e.g. -root 198.41.0.4:53)")
	}
	if *port < 1 || *port > 65535 {
		return fmt.Errorf("-upstream-port %d: want a port in 1–65535", *port)
	}
	var hints []core.ServerRef
	for i, addr := range strings.Split(*roots, ",") {
		hints = append(hints, core.ServerRef{
			Host: dnswire.MustName(fmt.Sprintf("root%d.hint.", i)),
			Addr: transport.Addr(strings.TrimSpace(addr)),
		})
	}
	policy, err := core.ParsePolicy(*renewal, *credit)
	if err != nil {
		return err
	}
	meshOn := *meshListen != ""
	if meshOn && *meshKey == "" {
		return fmt.Errorf("-mesh-listen requires -mesh-key (the fleet's shared frame-authentication key)")
	}
	if !meshOn && *meshPeers != "" {
		return fmt.Errorf("-mesh-peers needs -mesh-listen")
	}
	var peers []string
	if meshOn {
		if _, err := mesh.ParseAddr(*meshListen); err != nil {
			return fmt.Errorf("-mesh-listen: %w", err)
		}
		for _, p := range strings.Split(*meshPeers, ",") {
			if p = strings.TrimSpace(p); p == "" {
				continue
			}
			if _, err := mesh.ParseAddr(p); err != nil {
				return fmt.Errorf("-mesh-peers: %w", err)
			}
			peers = append(peers, p)
		}
	}

	// Open the persistence store before building the server so its change
	// hook observes every cache mutation from the first query on. Deltas
	// only buffer in memory until Recover writes the first checkpoint.
	var store *persist.Store
	var onChange cache.ChangeFunc
	if *persistDir != "" {
		store, err = persist.Open(persist.Options{Dir: *persistDir})
		if err != nil {
			return err
		}
		onChange = store.Observe
	}

	// Tracing is enabled only when something consumes it: the debug
	// endpoint's ring buffer, the query log, or both. The debug listener
	// is bound here, before anything else starts, so a bad address fails
	// start-up outright and ":0" reports its real port.
	var sinks []resolve.Sink
	var ring *resolve.Ring
	var debugLn net.Listener
	if *debugAddr != "" {
		if debugLn, err = net.Listen("tcp", *debugAddr); err != nil {
			return err
		}
		defer debugLn.Close()
		ring = resolve.NewRing(512)
		sinks = append(sinks, ring)
	}
	var qlog *jsonLogSink
	if *queryLog != "" {
		qlog, err = newJSONLogSink(*queryLog)
		if err != nil {
			return err
		}
		sinks = append(sinks, qlog)
	}

	coreCfg := core.Config{
		// The transport timeout matches -max-timeout so the upstream
		// layer's per-attempt deadline (passed via context) is what
		// actually bounds each exchange.
		Transport: &transport.UDPWithTCPFallback{
			UDP: transport.UDP{Timeout: *maxTimeout},
			TCP: transport.TCP{Timeout: 2 * *maxTimeout},
		},
		RootHints:     hints,
		RefreshTTL:    *refresh,
		Renewal:       policy,
		MaxTTL:        *maxTTL,
		NegativeTTL:   *negTTL,
		ServeStale:    *serveStale,
		Prefetch:      *prefetch,
		AsyncPrefetch: *prefetch,
		TraceSink:     resolve.MultiSink(sinks...),
		AddrMapper:    upstreamAddr(uint16(*port)),
		Upstream: core.UpstreamConfig{
			MinTimeout:  *minTimeout,
			MaxTimeout:  *maxTimeout,
			Quarantine:  *quarantine,
			RetryBudget: *retryBudget,
		},
		OnCacheChange: onChange,
	}
	// The caching server's Fleet is the mesh node and the node's backend
	// is the caching server: the node comes first, without a backend, and
	// is bound to the server before the listeners and the renewal loop
	// start, so neither ever sees the other half missing.
	var node *mesh.Node
	var meshConn *mesh.Conn
	if meshOn {
		meshConn, err = mesh.ListenUDP(*meshListen)
		if err != nil {
			return err
		}
		node, err = mesh.NewNode(mesh.Config{
			Self:      meshConn.LocalAddr(),
			Key:       []byte(*meshKey),
			Peers:     peers,
			Transport: meshConn,
			Clock:     simclock.Real{},
		})
		if err != nil {
			meshConn.Close()
			return err
		}
		coreCfg.Fleet = node
	}
	cs, err := core.NewCachingServer(coreCfg)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if meshOn {
		node.SetBackend(cs)
		go func() {
			if err := meshConn.Serve(node); err != nil {
				fmt.Fprintln(os.Stderr, "dnscache: mesh:", err)
			}
		}()
		go every(ctx, mesh.DefaultProbeInterval, node.Tick)
		fmt.Printf("mesh on %s (peers=%d)\n", meshConn.LocalAddr(), len(peers))
	}

	if store != nil {
		rep, err := store.Recover(cs)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		go store.Run(ctx, cs, *snapshotEvery, func(err error) {
			fmt.Fprintln(os.Stderr, "dnscache:", err)
		})
	}

	if policy != nil {
		go cs.RunRenewalLoop(ctx)
	}
	if qlog != nil {
		go every(ctx, time.Second, func(time.Time) { qlog.Flush() })
	}

	if *sweep > 0 {
		// Background sweep: lazy expiry only reclaims entries that get
		// looked up again, so an attack-inflated cache — and a negative
		// cache fed never-repeated names — would otherwise hold dead
		// records (and their journal weight) indefinitely.
		go every(ctx, *sweep, func(time.Time) { cs.Cache().SweepExpired() })
	}

	// The guard wraps the frontend only when a guard feature is on, so
	// with the flags at their defaults the serving path is unchanged.
	// Counters always exist: the UDP server still counts sheds and
	// FORMERRs with the guard off.
	guardCounters := metrics.NewSet[metrics.GuardCounters]()
	guardOn := *clientRPS > 0 || *overloadCacheOnly
	if *maxInflight <= 0 {
		*maxInflight = transport.DefaultMaxInflight
	}
	var udpHandler transport.Handler = cs
	udp := &transport.UDPServer{MaxInflight: *maxInflight, Counters: guardCounters}
	if guardOn {
		// Handshake-confirmed mesh peers bypass the per-client bucket: a
		// cooperating fleet member must never be rate-limited mid-attack.
		var peerExempt func(netip.Addr) bool
		if meshOn {
			peerExempt = node.IsPeerIP
		}
		g := guard.New(cs, guard.Config{
			ClientRPS:           *clientRPS,
			Slip:                *slip,
			MaxClients:          *maxClients,
			CacheOnlyOnOverload: *overloadCacheOnly,
			Counters:            guardCounters,
			PeerExempt:          peerExempt,
		})
		udpHandler = g
		udp.Overload = g.HandleOverload
	}
	udp.Handler = udpHandler
	addr, err := udp.Listen(*listen)
	if err != nil {
		return err
	}
	// TCP is deliberately unguarded: slip pushes clients there, the
	// connection itself provides backpressure, and sources are real.
	tcp := &transport.TCPServer{Handler: cs, MaxInflight: *maxInflight}
	if _, err := tcp.Listen(addr); err != nil {
		udp.Close()
		return err
	}
	fmt.Printf("caching server on %s (udp+tcp, refresh=%v renewal=%s max-inflight=%d guard=%v)\n",
		addr, *refresh, *renewal, *maxInflight, guardOn)

	// Every counter set the process keeps, in display order. /debug/stats,
	// the -stats line and the shutdown dump all render from this list, so
	// a new set — or a new field in one — shows up in each with no other
	// edit.
	counterSets := []debughttp.Section{
		{Name: "server", Read: func() any { return cs.Stats() }},
		{Name: "guard", Read: func() any { return metrics.Snapshot(guardCounters) }},
	}
	if meshOn {
		counterSets = append(counterSets, debughttp.Section{Name: "mesh", Read: func() any { return node.Snapshot().Counters }})
	}
	if store != nil {
		counterSets = append(counterSets, debughttp.Section{Name: "persist", Read: func() any { return store.Counters() }})
	}

	var debugSrv *http.Server
	if debugLn != nil {
		opts := debughttp.Options{
			Sections: statsSections(start, cs, counterSets),
			Latency:  cs.Resolver().LatencySnapshots,
			Ring:     ring,
		}
		if meshOn {
			opts.Peers = func() any { return node.Snapshot() }
		}
		debugSrv = &http.Server{Handler: debughttp.New(opts)}
		go func() {
			if err := debugSrv.Serve(debugLn); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "dnscache: debug endpoint:", err)
			}
		}()
		fmt.Printf("debug endpoint on http://%s/debug/stats\n", debugLn.Addr())
	}

	if *statsEvery > 0 {
		go every(ctx, *statsEvery, func(time.Time) {
			fmt.Println(counterReport("stats", cs.Cache().Stats(), counterSets, " "))
		})
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Graceful drain: stop the renewal loop, then close each listener —
	// Close waits for every in-flight handler goroutine to finish.
	fmt.Println("shutting down: draining in-flight queries")
	cancel()
	if meshConn != nil {
		_ = meshConn.Close()
	}
	udp.Close()
	tcp.Close()
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	// Stop the background prefetch workers (drains queued refreshes) so
	// the final stats and query log include their last traces.
	cs.Close()
	if qlog != nil {
		if err := qlog.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dnscache:", err)
		}
	}

	// Final snapshot after the drain, so the checkpoint includes the last
	// in-flight answers and the next start replays a complete cache.
	if store != nil {
		if err := store.Checkpoint(cs); err != nil {
			fmt.Fprintln(os.Stderr, "dnscache:", err)
		}
		if err := store.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dnscache:", err)
		}
	}

	// The shutdown dump: the -stats line's report, one set per line. The
	// server's keeps the "final:" label that scripts (benchmark/report.go
	// among them) pick the line out by. Nothing is being served any more,
	// so the occupancy is taken after one last sweep: stale= counts what
	// serve-stale retains, not unswept expiries.
	fmt.Println(counterReport("final", cs.CacheStats(), counterSets, "\n"))
	fmt.Println("drained")
	atExit(cs.Stats().QueriesIn)
	return nil
}
