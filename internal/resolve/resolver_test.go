package resolve

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

func rrA(name string, ttl uint32, ip string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.A{Addr: netip.MustParseAddr(ip)},
	}
}

func rrAAAA(name string, ttl uint32, ip string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.AAAA{Addr: netip.MustParseAddr(ip)},
	}
}

func rrNS(name string, ttl uint32, host string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.NS{Host: dnswire.MustName(host)},
	}
}

func rrCNAME(name, target string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   300,
		Data:  dnswire.CNAME{Target: dnswire.MustName(target)},
	}
}

// deadTransport times out every exchange.
var deadTransport = transport.Exchanger(func(context.Context, transport.Addr, *dnswire.Message) (*dnswire.Message, error) {
	return nil, transport.ErrTimeout
})

// newTestResolver builds a bare Resolver over a fresh cache and virtual
// clock, filling only the required fields the test left unset.
func newTestResolver(t testing.TB, cfg Config) *Resolver {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = simclock.NewVirtual(epoch)
	}
	if cfg.Cache == nil {
		cfg.Cache = cache.New(cache.Config{Clock: cfg.Clock})
	}
	if cfg.Transport == nil {
		cfg.Transport = deadTransport
	}
	if len(cfg.RootAddrs) == 0 {
		cfg.RootAddrs = []transport.Addr{"10.0.0.1"}
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

// TestAAAAGlueFallback is the regression test for renewal extending AAAA
// glue that selection could never use: a name server with only an AAAA
// record must still be reachable via deepestKnownZone and ZoneAddrs.
func TestAAAAGlueFallback(t *testing.T) {
	r := newTestResolver(t, Config{})
	nsSet := []dnswire.RR{rrNS("v6.test.", 3600, "ns1.v6.test.")}
	r.cache.Put(nsSet, cache.CredAuthority, true)
	r.cache.Put([]dnswire.RR{rrAAAA("ns1.v6.test.", 3600, "2001:db8::53")}, cache.CredAuthority, true)

	zname, addrs := r.deepestKnownZone(nil, dnswire.MustName("www.v6.test."), dnswire.TypeA, false, r.cfg.Clock.Now())
	if zname != dnswire.MustName("v6.test.") {
		t.Fatalf("deepestKnownZone = %s, want v6.test.", zname)
	}
	if len(addrs) != 1 || addrs[0] != transport.Addr("2001:db8::53") {
		t.Errorf("addrs = %v, want the AAAA glue address", addrs)
	}

	if got := r.ZoneAddrs(nsSet); len(got) != 1 || got[0] != transport.Addr("2001:db8::53") {
		t.Errorf("ZoneAddrs = %v, want the AAAA glue address", got)
	}
}

// TestAAAAOnlyGlueIsUsable: a delegation whose only cached glue is AAAA
// is usable to deepestKnownZone, so resolveMissingGlue must agree and not
// spend the query's glue budget and upstream attempts chasing A records
// nobody needs.
func TestAAAAOnlyGlueIsUsable(t *testing.T) {
	var attempts int
	counting := transport.Exchanger(func(context.Context, transport.Addr, *dnswire.Message) (*dnswire.Message, error) {
		attempts++
		return nil, transport.ErrTimeout
	})
	r := newTestResolver(t, Config{Transport: counting})
	r.cache.Put([]dnswire.RR{
		rrNS("child.test.", 3600, "ns1.other."),
		rrNS("child.test.", 3600, "ns2.other."),
	}, cache.CredAuthority, true)
	r.cache.Put([]dnswire.RR{rrAAAA("ns1.other.", 3600, "2001:db8::53")}, cache.CredAuthority, true)

	if _, addrs := r.deepestKnownZone(nil, dnswire.MustName("www.child.test."), dnswire.TypeA, false, r.cfg.Clock.Now()); len(addrs) != 1 || addrs[0] != "2001:db8::53" {
		t.Fatalf("deepestKnownZone addrs = %v, want the AAAA glue address", addrs)
	}
	r.resolveMissingGlue(context.Background(), nil, dnswire.MustName("child.test."), 0)
	if got := r.Counters().GlueFetches; attempts != 0 || got != 0 {
		t.Errorf("usable zone still chased glue: %d upstream attempts, GlueFetches = %d; want 0 and 0", attempts, got)
	}
}

// TestAGluePreferredOverAAAA: AAAA is strictly a fallback; when both
// families are cached only the A addresses are used (matching the
// simulator's IPv4-only universe).
func TestAGluePreferredOverAAAA(t *testing.T) {
	r := newTestResolver(t, Config{})
	nsSet := []dnswire.RR{rrNS("v6.test.", 3600, "ns1.v6.test.")}
	r.cache.Put(nsSet, cache.CredAuthority, true)
	r.cache.Put([]dnswire.RR{rrA("ns1.v6.test.", 3600, "10.6.6.6")}, cache.CredAuthority, true)
	r.cache.Put([]dnswire.RR{rrAAAA("ns1.v6.test.", 3600, "2001:db8::53")}, cache.CredAuthority, true)

	_, addrs := r.deepestKnownZone(nil, dnswire.MustName("www.v6.test."), dnswire.TypeA, false, r.cfg.Clock.Now())
	if len(addrs) != 1 || addrs[0] != transport.Addr("10.6.6.6") {
		t.Errorf("addrs = %v, want only the A glue", addrs)
	}
}

// TestBudgetExhaustionError: the fetch engine surfaces the sentinel so
// callers can tell budget exhaustion from ordinary unreachability.
func TestBudgetExhaustionError(t *testing.T) {
	r := newTestResolver(t, Config{Transport: deadTransport, Upstream: UpstreamConfig{RetryBudget: 1}})
	ctx := new(Work)
	r.Begin(ctx, context.Background(), KindResolve)
	_, err := r.engine.Fetch(ctx, nil, []transport.Addr{"10.0.0.1", "10.0.0.2"},
		dnswire.MustName("x."), dnswire.TypeA)
	if !errors.Is(err, errBudgetExhausted) {
		t.Errorf("error = %v, want errBudgetExhausted in the chain", err)
	}
	if c := r.Counters(); c.BudgetExhausted != 1 {
		t.Errorf("BudgetExhausted = %d, want 1", c.BudgetExhausted)
	}
}

// TestConcurrentQIDsUnique checks that concurrent queries never share a
// query ID within a window of outstanding queries.
func TestConcurrentQIDsUnique(t *testing.T) {
	r := newTestResolver(t, Config{})
	const n = 1000
	ids := make([]uint16, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = r.engine.nextQID()
		}(i)
	}
	wg.Wait()
	seen := make(map[uint16]bool, n)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate query ID %d within %d concurrent queries", id, n)
		}
		seen[id] = true
	}
}

// TestParentSeenOnlyWithRecheck: the parent-confirmation record is only
// ever read by the recheck, so with ParentRecheckInterval at 0 — every
// live and simulated configuration — referrals must leave the map empty
// instead of growing it by one entry per delegation ever seen.
func TestParentSeenOnlyWithRecheck(t *testing.T) {
	const n = 50
	for _, tc := range []struct {
		interval time.Duration
		want     int
	}{{0, 0}, {time.Hour, n}} {
		r := newTestResolver(t, Config{ParentRecheckInterval: tc.interval})
		for i := 0; i < n; i++ {
			child := fmt.Sprintf("child%d.test.", i)
			resp := &dnswire.Message{Flags: dnswire.Flags{Response: true}}
			resp.Authority = []dnswire.RR{rrNS(child, 3600, "ns."+child)}
			resp.Additional = []dnswire.RR{rrA("ns."+child, 3600, "10.2.0.1")}
			r.Ingest(resp, dnswire.MustName("test."), dnswire.MustName("www."+child))
		}
		r.parentMu.Lock()
		got := len(r.parentSeen)
		r.parentMu.Unlock()
		if got != tc.want {
			t.Errorf("ParentRecheckInterval %v: %d referrals left %d parentSeen entries, want %d", tc.interval, n, got, tc.want)
		}
	}
}

// TestFetchAdvertisesEDNS0: every query the engine sends carries an OPT
// record advertising the 4096-byte payload (RFC 6891).
func TestFetchAdvertisesEDNS0(t *testing.T) {
	var adv uint16
	var ok bool
	capture := transport.Exchanger(func(_ context.Context, _ transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		adv, ok = q.EDNS0PayloadSize()
		return nil, transport.ErrTimeout
	})
	r := newTestResolver(t, Config{Transport: capture})
	r.engine.Fetch(context.Background(), nil, []transport.Addr{"10.0.0.1"}, dnswire.MustName("x."), dnswire.TypeA)
	if !ok || adv != dnswire.DefaultEDNS0PayloadSize {
		t.Errorf("query advertised EDNS0 %v, payload %d; want %d", ok, adv, dnswire.DefaultEDNS0PayloadSize)
	}
}
