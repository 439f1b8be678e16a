package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/authserver"
	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

// These tests pin the ctxdeadline invariant at runtime: every context
// that reaches an upstream exchange from a detached execution path (a
// singleflight flight, the live renewal loop) must carry a deadline,
// because no caller's context bounds those paths.

// deadlineCapture wraps a transport and records, per exchange, whether
// the context carried a deadline.
type deadlineCapture struct {
	inner transport.Transport

	mu      sync.Mutex
	total   int
	bounded int
}

func (d *deadlineCapture) Exchange(ctx context.Context, server transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	_, ok := ctx.Deadline()
	d.mu.Lock()
	d.total++
	if ok {
		d.bounded++
	}
	d.mu.Unlock()
	return d.inner.Exchange(ctx, server, q)
}

func (d *deadlineCapture) counts() (total, bounded int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total, d.bounded
}

// TestFlightContextBounded verifies that the detached singleflight
// context carries a deadline: a caller with an unbounded context must
// not spawn an unbounded flight.
func TestFlightContextBounded(t *testing.T) {
	capture := &deadlineCapture{inner: flatRootPipe()}
	cs := newPipeHierarchy(t, Config{Transport: capture}, 3600, 0)

	if _, err := cs.Resolve(context.Background(), dnswire.MustName("www.example."), dnswire.TypeA); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	total, bounded := capture.counts()
	if total == 0 {
		t.Fatal("no upstream exchanges recorded")
	}
	if bounded != total {
		t.Errorf("%d/%d upstream exchanges carried a deadline, want all", bounded, total)
	}
}

// TestRenewalLoopBoundsRefetches verifies that RunRenewalLoop hands
// each sweep a bounded context even when its own context has no
// deadline: a black-holed authoritative must not hang the loop.
func TestRenewalLoopBoundsRefetches(t *testing.T) {
	// IRR TTL 2s with renewLead 1s: the renewal scheduled when the
	// example. referral is ingested comes due about a second after the
	// first resolution.
	const irrTTL = 2
	root := zone.New(dnswire.Root)
	root.MustAdd(rrNS(".", 3600000, "a.root-servers.net."))
	root.MustAdd(rrA("a.root-servers.net.", 3600000, "10.0.0.1"))
	root.MustAdd(rrNS("example.", irrTTL, "ns1.example."))
	root.MustAdd(rrA("ns1.example.", irrTTL, "10.0.5.1"))
	ex := zone.New(dnswire.MustName("example."))
	ex.MustAdd(rrNS("example.", irrTTL, "ns1.example."))
	ex.MustAdd(rrA("ns1.example.", irrTTL, "10.0.5.1"))
	ex.MustAdd(rrA("www.example.", 300, "10.9.9.9"))
	capture := &deadlineCapture{inner: &transport.Pipe{Handlers: map[transport.Addr]transport.Handler{
		"10.0.0.1": authserver.New(root),
		"10.0.5.1": authserver.New(ex),
	}}}
	cs := newPipeHierarchy(t, Config{
		Transport:  capture,
		RefreshTTL: true,
		Renewal:    LRU{C: 2},
	}, irrTTL, 0)

	if _, err := cs.Resolve(context.Background(), dnswire.MustName("www.example."), dnswire.TypeA); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if _, ok := cs.NextRenewalDue(); !ok {
		t.Fatal("no renewal scheduled after resolution")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go cs.RunRenewalLoop(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for cs.Stats().Renewals == 0 {
		if time.Now().After(deadline) {
			t.Fatal("renewal loop never issued a refetch")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()

	total, bounded := capture.counts()
	if bounded != total {
		t.Errorf("%d/%d upstream exchanges carried a deadline, want all", bounded, total)
	}
}

// renewalFixture is a caching server on a virtual clock holding the
// given zones' NS sets (TTL 100 s, one credit each), each served by the
// two hosts ns1 and ns2 of its own zone, and the renewal checks of all of
// them queued, in the given order, for the instant it returns.
func renewalFixture(t *testing.T, clk *simclock.Virtual, tr transport.Transport, zones ...string) (*CachingServer, time.Time) {
	t.Helper()
	cs, err := NewCachingServer(Config{
		Transport: tr,
		Clock:     clk,
		RootHints: []ServerRef{{Host: dnswire.MustName("a.root-servers.net."), Addr: "10.0.0.1"}},
		Renewal:   LRU{C: 3},
	})
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}
	t.Cleanup(cs.Close)
	credits := map[dnswire.Name]float64{}
	due := epoch.Add(100*time.Second - renewLead)
	for z, name := range zones {
		var set []dnswire.RR
		for i := 1; i <= 2; i++ {
			host := fmt.Sprintf("ns%d.%s", i, name)
			set = append(set, rrNS(name, 100, host))
			cs.cache.Put([]dnswire.RR{rrA(host, 3600, fmt.Sprintf("10.0.%d.%d", z+1, i))}, cache.CredAnswer, true)
		}
		cs.cache.Put(set, cache.CredAnswer, true)
		credits[dnswire.MustName(name)] = 1
		cs.scheduleRenewalAt(dnswire.MustName(name), due)
	}
	cs.RestoreRenewalCredits(credits)
	clk.AdvanceTo(due)
	return cs, due
}

// TestRenewalAttemptEndsWithWork: a renewal refetch stops at its Work's
// end in time, 30 s after the refetch began on the server's clock. The
// zone's first server takes all but 100 ms of that to fail, so the second
// is asked with 100 ms left and must be given no more than that, not
// -max-timeout's 3 s.
func TestRenewalAttemptEndsWithWork(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	var given []time.Duration
	slow := transport.Exchanger(func(ctx context.Context, _ transport.Addr, _ *dnswire.Message) (*dnswire.Message, error) {
		d, _ := ctx.Deadline()
		given = append(given, time.Until(d))
		clk.Advance(30*time.Second - 100*time.Millisecond)
		return nil, transport.ErrTimeout
	})
	cs, due := renewalFixture(t, clk, slow, "a.test.")
	cs.ProcessDueRenewals(context.Background(), due)
	if len(given) != 2 {
		t.Fatalf("%d attempts, want one per server", len(given))
	}
	if given[1] > 100*time.Millisecond {
		t.Errorf("the attempt with 100 ms of the renewal left was given %v", given[1].Round(time.Millisecond))
	}
}

// TestRenewalBoundPerRefetch: two zones fall due in one sweep, and every
// attempt at the first zone's two servers black-holes for 31 s of the
// server's clock. The first refetch stops after one attempt, past its
// 30 s; the second zone's refetch starts with 30 s of its own and renews.
func TestRenewalBoundPerRefetch(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	var blackholed int
	tr := transport.Exchanger(func(_ context.Context, _ transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		zone := string(q.Question[0].Name)
		if zone == "a.test." {
			blackholed++
			clk.Advance(31 * time.Second)
			return nil, transport.ErrTimeout
		}
		resp := q.Reply()
		resp.Flags.Authoritative = true
		resp.Answer = []dnswire.RR{rrNS(zone, 100, "ns1."+zone)}
		return resp, nil
	})
	cs, due := renewalFixture(t, clk, tr, "a.test.", "b.test.")
	if n := cs.ProcessDueRenewals(context.Background(), due); n != 2 {
		t.Fatalf("ProcessDueRenewals issued %d refetches, want both zones", n)
	}
	if blackholed != 1 {
		t.Errorf("%d attempts at the black-holed zone, want 1: the second would start past its 30 s", blackholed)
	}
	if st := cs.Stats(); st.RenewalFailed != 1 || st.Renewals != 1 {
		t.Errorf("RenewalFailed = %d, Renewals = %d; want the second zone renewed after the first failed", st.RenewalFailed, st.Renewals)
	}
}
