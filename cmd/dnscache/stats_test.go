package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/netip"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/debughttp"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/transport"
)

// TestStatsSectionsAreReadOnly drives the section list dnscache itself
// serves: a GET of /debug/stats must not sweep the cache (it used to
// write-lock every shard), and the occupancy it reports still leaves the
// expired entries out.
func TestStatsSectionsAreReadOnly(t *testing.T) {
	clock := simclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	cs, err := core.NewCachingServer(core.Config{
		Transport: simnet.New(clock),
		Clock:     clock,
		RootHints: []core.ServerRef{{Host: "a.root.", Addr: "198.41.0.4"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	put := func(name dnswire.Name, ttl uint32) {
		cs.Cache().Put([]dnswire.RR{{Name: name, Class: dnswire.ClassIN, TTL: ttl,
			Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}}, cache.CredAnswer, false)
	}
	put("short.example.", 10)
	put("long.example.", 3600)
	clock.Advance(time.Minute)
	if cs.Cache().Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2 (one of them expired)", cs.Cache().Len())
	}

	ln, err := transport.ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go debughttp.Serve(ln, debughttp.Options{Sections: statsSections(time.Now(), cs, nil)})
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Cache cache.Stats `json:"cache"`
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if p.Cache.Entries != 1 {
		t.Errorf(`"cache".Entries = %d, want 1: the expired entry is not live`, p.Cache.Entries)
	}
	if cs.Cache().Len() != 2 {
		t.Errorf("the GET swept the cache: %d entries left, want 2", cs.Cache().Len())
	}
}

// TestCounterReport pins the shape both the -stats line and the shutdown
// dump print, the dump's "final:" and "guard:" lines being what
// benchmark/report.go picks out: every counter of every set, the server's
// first with the cache occupancy after it.
func TestCounterReport(t *testing.T) {
	type server struct{ QueriesIn, Failed uint64 }
	type guard struct{ Shed uint64 }
	sets := []debughttp.Section{
		{Name: "server", Read: func() any { return server{QueriesIn: 3, Failed: 1} }},
		{Name: "guard", Read: func() any { return guard{Shed: 2} }},
	}
	cst := cache.Stats{Zones: 4, Records: 5, StaleEntries: 6}
	if got, want := counterReport("final", cst, sets, "\n"),
		"final: QueriesIn=3 Failed=1 cached: zones=4 records=5 stale=6\nguard: Shed=2"; got != want {
		t.Errorf("shutdown dump:\n%s\nwant\n%s", got, want)
	}
	if got, want := counterReport("stats", cst, sets, " "),
		"stats: QueriesIn=3 Failed=1 cached: zones=4 records=5 stale=6 guard: Shed=2"; got != want {
		t.Errorf("-stats line: %q, want %q", got, want)
	}
}

// TestNoHTTPStack fences the binary's dependencies: the debug endpoint is
// served without net/http, so nothing may bring it, or the TLS and x509
// code it links, back in. On Linux every socket is transport's own (but
// on 386, which lacks the raw socket calls it makes), so
// net may not come back either: it compiles its cgo resolver in, and
// runtime/cgo with it, which makes the binary dynamic and maps libc and
// the dynamic loader into every instance.
func TestNoHTTPStack(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		switch pkg {
		case "net/http", "crypto/tls", "crypto/x509", "net/textproto":
			t.Errorf("dnscache depends on %s", pkg)
		case "net", "runtime/cgo":
			if runtime.GOOS == "linux" && runtime.GOARCH != "386" {
				t.Errorf("dnscache depends on %s", pkg)
			}
		}
	}
}
