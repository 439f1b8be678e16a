package main

import (
	"flag"
	"net/netip"
	"strings"
	"testing"
	"time"

	"resilientdns/internal/transport"
)

// flagSurface is dnscache's command line as `dnscache -h` prints it: each
// flag's name, value type, default and usage. The meter starts dnscache
// with -listen, -stats, -root, -upstream-port, -debug-addr, -refresh,
// -renewal, -credit, -client-rps, -slip and -overload-cache-only, and
// operators' scripts with any of them, so a change here is a change to
// every command line that names one.
var flagSurface = [][4]string{
	{"client-rps", "float", "0", "per-client-address UDP query rate limit in queries/s (0 = off)"},
	{"credit", "float", "3", "renewal credit c"},
	{"debug-addr", "string", "", "IP:port serving HTTP /debug/stats, /debug/queries, /debug/peers (with -mesh-listen) and /debug/pprof/ (empty = off; enables per-query tracing)"},
	{"listen", "string", "127.0.0.1:5301", "IP:port to serve stub resolvers on, over UDP and TCP (:port = every address)"},
	{"max-clients", "int", "65536", "rate-limiter client-slot bound; least recently seen clients are evicted past it"},
	{"max-inflight", "int", "1024", "max queries handled concurrently per listener"},
	{"max-timeout", "duration", "3s", "upper clamp on the adaptive per-attempt upstream timeout"},
	{"max-ttl", "duration", "168h0m0s", "cache TTL clamp"},
	{"mesh-key", "string", "", "shared fleet HMAC key authenticating mesh frames (required with -mesh-listen)"},
	{"mesh-listen", "string", "", "UDP address for the cooperative resolver mesh (empty = mesh off)"},
	{"mesh-peers", "string", "", "comma-separated mesh peer addresses (IP:port), the fleet's membership, with -mesh-listen"},
	{"min-timeout", "duration", "200ms", "lower clamp on the adaptive per-attempt upstream timeout"},
	{"negative-ttl", "duration", "0s", "negative-answer cache TTL (0 = off)"},
	{"overload-cache-only", "", "false", "answer queries arriving while all -max-inflight slots are busy from cache/stale data only, instead of dropping them"},
	{"persist-dir", "string", "", "directory for crash-safe cache persistence: snapshot + journal, replayed on startup (empty = off)"},
	{"prefetch", "", "false", "refresh hot answers in the last 10% of their TTL, on a background worker pool"},
	{"quarantine", "duration", "5s", "base quarantine after an upstream failure, doubling per consecutive failure (negative = off)"},
	{"query-log", "string", "", "append one JSON line per finished query trace to this file (empty = off; enables per-query tracing)"},
	{"refresh", "", "false", "enable TTL refresh of infrastructure records"},
	{"renewal", "string", "", "TTL renewal policy: lru, lfu, a-lru, a-lfu (empty = off)"},
	{"retry-budget", "int", "16", "max upstream attempts one resolution may spend across all failovers (0 = unlimited)"},
	{"root", "string", "", "comma-separated root server IP:port literals, required"},
	{"serve-stale", "duration", "0s", "serve expired records for this long when servers are unreachable (0 = off)"},
	{"slip", "int", "2", "answer every Nth rate-limited UDP query with a minimal TC=1 reply instead of dropping it (0 = never; needs -client-rps)"},
	{"snapshot-every", "duration", "5m0s", "interval between full cache snapshots when -persist-dir is set (0 = journal only)"},
	{"stats", "duration", "1m0s", "stats reporting interval (0 = off)"},
	{"sweep", "duration", "1m0s", "interval between background sweeps of expired cache and negative-cache entries (0 = lazy expiry only)"},
	{"upstream-port", "int", "53", "port appended to learned name-server addresses"},
}

// TestParseFlags pins the flag surface, checks that each flag writes the
// setting it names, and that every start-up error a flag's value decides
// comes from parseFlags, which opens and binds nothing.
func TestParseFlags(t *testing.T) {
	fs := flag.NewFlagSet("dnscache", flag.ContinueOnError)
	o, err := parseFlags(fs, []string{"-root", "192.0.2.1:53,[2001:db8::1]:53", "-refresh", "-renewal", "a-lfu",
		"-credit", "5", "-prefetch", "-max-timeout", "2s", "-retry-budget", "4", "-upstream-port", "5353",
		"-client-rps", "50", "-persist-dir", "store", "-max-inflight", "0"})
	if err != nil {
		t.Fatal(err)
	}
	var got [][4]string
	fs.VisitAll(func(f *flag.Flag) {
		typ, usage := flag.UnquoteUsage(f)
		got = append(got, [4]string{f.Name, typ, f.DefValue, usage})
	})
	if len(got) != len(flagSurface) {
		t.Errorf("%d flags, want %d", len(got), len(flagSurface))
	}
	for i := 0; i < len(got) && i < len(flagSurface); i++ {
		if got[i] != flagSurface[i] {
			t.Errorf("flag %d is %q, want %q", i, got[i], flagSurface[i])
		}
	}

	c := o.cfg
	if len(c.RootHints) != 2 || c.RootHints[1].Addr != "[2001:db8::1]:53" {
		t.Errorf("-root gave root hints %v", c.RootHints)
	}
	if !c.RefreshTTL || c.Renewal == nil || c.Renewal.Name() != "A-LFU(5)" || !c.Prefetch || !c.AsyncPrefetch {
		t.Errorf("refresh=%v renewal=%v prefetch=%v async=%v, want the policy flags' settings",
			c.RefreshTTL, c.Renewal, c.Prefetch, c.AsyncPrefetch)
	}
	if c.Upstream.MaxTimeout != 2*time.Second || c.Upstream.RetryBudget != 4 || c.Upstream.MinTimeout != 200*time.Millisecond {
		t.Errorf("upstream settings %+v", c.Upstream)
	}
	if tr, ok := c.Transport.(*transport.UDPWithTCPFallback); !ok || tr.UDP.Timeout != 2*time.Second || tr.TCP.Timeout != 4*time.Second {
		t.Errorf("transport %+v, want -max-timeout on UDP and twice it on TCP", c.Transport)
	}
	if c.AddrMapper == nil || c.AddrMapper(netip.MustParseAddr("192.0.2.1")) != "192.0.2.1:5353" {
		t.Error("learned addresses do not get -upstream-port")
	}
	if o.guard.ClientRPS != 50 || o.guard.Slip != 2 || o.persist.Dir != "store" || o.maxInflight != transport.DefaultMaxInflight {
		t.Errorf("guard %+v, store %+v, max-inflight %d", o.guard, o.persist, o.maxInflight)
	}

	for _, tc := range []struct {
		want string
		args []string
	}{
		{"-root is required", nil},
		{"-upstream-port 0", []string{"-root", "127.0.0.1:53", "-upstream-port", "0"}},
		{"-upstream-port 70000", []string{"-root", "127.0.0.1:53", "-upstream-port", "70000"}},
		{"-listen", []string{"-root", "127.0.0.1:53", "-listen", "localhost:53"}},
		{"-mesh-listen requires -mesh-key", []string{"-root", "127.0.0.1:53", "-mesh-listen", "127.0.0.1:7946"}},
		{"-mesh-peers needs -mesh-listen", []string{"-root", "127.0.0.1:53", "-mesh-peers", "127.0.0.1:7946"}},
		{"unknown renewal policy", []string{"-root", "127.0.0.1:53", "-renewal", "mru"}},
		{"renewal credit NaN", []string{"-root", "127.0.0.1:53", "-renewal", "lru", "-credit", "NaN"}},
	} {
		if _, err := parseArgs(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: parseFlags = %v, want an error with %q", tc.args, err, tc.want)
		}
	}
}
