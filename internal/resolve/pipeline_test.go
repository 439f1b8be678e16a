package resolve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// TestStageBoundaries pins down which pipeline stage answers each
// canonical scenario: what the CacheLookup hot path may serve on its
// own, and what it must hand to the slow path (ChainWalk → Iterate →
// StaleFallback). Every case runs against a dead upstream so any
// answer that does arrive provably came from the claimed stage.
func TestStageBoundaries(t *testing.T) {
	www := dnswire.MustName("www.test.")
	cases := []struct {
		name string
		cfg  Config       // Clock/Cache/Transport filled by the harness
		cc   cache.Config // Clock filled by the harness
		// setup primes the cache and may advance time.
		setup func(r *Resolver, clk *simclock.Virtual)
		// wantHot: the hot path answers by itself (no slow path needed).
		wantHot bool
		// check inspects the final result (hot answer if wantHot, the
		// slow-path ResolveChain result otherwise).
		check func(t *testing.T, r *Resolver, res *Result, err error)
	}{
		{
			name: "cache-hit",
			setup: func(r *Resolver, clk *simclock.Virtual) {
				r.cache.Put([]dnswire.RR{rrA("www.test.", 300, "10.1.1.1")}, cache.CredAuthority, false)
			},
			wantHot: true,
			check: func(t *testing.T, r *Resolver, res *Result, err error) {
				if err != nil || res.RCode != dnswire.RCodeNoError || !res.FromCache {
					t.Fatalf("res = %+v, err = %v, want cached NoError", res, err)
				}
				if c := r.Counters(); c.QueriesOut != 0 {
					t.Errorf("cache hit sent %d upstream queries", c.QueriesOut)
				}
			},
		},
		{
			name: "negative-hit",
			cc:   cache.Config{NegativeTTL: time.Minute},
			setup: func(r *Resolver, clk *simclock.Virtual) {
				soa := dnswire.RR{Name: dnswire.MustName("test."), Class: dnswire.ClassIN, TTL: 60,
					Data: dnswire.SOA{MName: dnswire.MustName("ns.test."), RName: dnswire.MustName("admin.test."), Minimum: 60}}
				r.cache.PutNegative(www, dnswire.TypeA, dnswire.RCodeNXDomain, []dnswire.RR{soa}, r.cfg.Clock.Now())
			},
			wantHot: true,
			check: func(t *testing.T, r *Resolver, res *Result, err error) {
				if err != nil || res.RCode != dnswire.RCodeNXDomain || !res.FromCache {
					t.Fatalf("res = %+v, err = %v, want cached NXDOMAIN", res, err)
				}
			},
		},
		{
			name: "stale-fallback",
			cc:   cache.Config{KeepStale: 24 * time.Hour},
			setup: func(r *Resolver, clk *simclock.Virtual) {
				r.cache.Put([]dnswire.RR{rrA("www.test.", 300, "10.1.1.1")}, cache.CredAuthority, false)
				clk.Advance(10 * time.Minute) // expired; upstream is dead
			},
			wantHot: false,
			check: func(t *testing.T, r *Resolver, res *Result, err error) {
				if err != nil {
					t.Fatalf("stale fallback failed: %v", err)
				}
				if len(res.Answer) != 1 || res.Answer[0].TTL != StaleServeTTL {
					t.Fatalf("res = %+v, want one stale RR with TTL %d", res, StaleServeTTL)
				}
				if c := r.Counters(); c.StaleAnswers != 1 {
					t.Errorf("StaleAnswers = %d, want 1", c.StaleAnswers)
				}
			},
		},
		{
			name: "prefetch-window-inline",
			cfg:  Config{Prefetch: true},
			setup: func(r *Resolver, clk *simclock.Virtual) {
				r.cache.Put([]dnswire.RR{rrA("www.test.", 300, "10.1.1.1")}, cache.CredAuthority, false)
				clk.Advance(280 * time.Second) // 20s left < 30s window
			},
			// Inline mode: the hot path declines so the slow path can
			// refetch before serving; the (failed) refetch is harmless
			// and the still-live cached answer comes back.
			wantHot: false,
			check: func(t *testing.T, r *Resolver, res *Result, err error) {
				if err != nil || !res.FromCache || len(res.Answer) != 1 {
					t.Fatalf("res = %+v, err = %v, want the cached answer", res, err)
				}
				if c := r.Counters(); c.PrefetchQueries != 1 {
					t.Errorf("PrefetchQueries = %d, want 1 inline refresh", c.PrefetchQueries)
				}
			},
		},
		{
			name: "prefetch-window-async",
			cfg:  Config{Prefetch: true, AsyncPrefetch: true},
			setup: func(r *Resolver, clk *simclock.Virtual) {
				r.cache.Put([]dnswire.RR{rrA("www.test.", 300, "10.1.1.1")}, cache.CredAuthority, false)
				clk.Advance(280 * time.Second)
			},
			// Async mode: the hit is served immediately from the hot
			// path; the refresh happens on the background pool.
			wantHot: true,
			check: func(t *testing.T, r *Resolver, res *Result, err error) {
				if err != nil || !res.FromCache || len(res.Answer) != 1 {
					t.Fatalf("res = %+v, err = %v, want the cached answer", res, err)
				}
			},
		},
		{
			name:    "cold-miss",
			setup:   func(r *Resolver, clk *simclock.Virtual) {},
			wantHot: false,
			check: func(t *testing.T, r *Resolver, res *Result, err error) {
				if err == nil {
					t.Fatalf("res = %+v, want failure with a dead upstream and cold cache", res)
				}
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.NewVirtual(epoch)
			tc.cfg.Clock, tc.cc.Clock = clk, clk
			tc.cfg.Cache = cache.New(tc.cc)
			r := newTestResolver(t, tc.cfg)
			defer r.Close()
			tc.setup(r, clk)

			hot, err := r.Lookup(nil, www, dnswire.TypeA)
			if (hot != nil) != tc.wantHot {
				t.Fatalf("hot path answered = %v (res %+v, err %v), want %v", hot != nil, hot, err, tc.wantHot)
			}
			if tc.wantHot {
				tc.check(t, r, hot, err)
				return
			}
			if err != nil {
				t.Fatalf("Lookup errored on its way to the slow path: %v", err)
			}
			res, err := r.ResolveChain(context.Background(), nil, www, dnswire.TypeA)
			tc.check(t, r, res, err)
		})
	}
}

// TestGlueDepthBounded: resolveMissingGlue must stop recursing at
// maxGlueDepth instead of chasing an arbitrarily deep out-of-bailiwick
// name-server dependency chain.
func TestGlueDepthBounded(t *testing.T) {
	var attempts int
	counting := transport.Exchanger(func(context.Context, transport.Addr, *dnswire.Message) (*dnswire.Message, error) {
		attempts++
		return nil, transport.ErrTimeout
	})
	r := newTestResolver(t, Config{Transport: counting})
	// child.test.'s only server is out of bailiwick with no cached glue.
	r.cache.Put([]dnswire.RR{rrNS("child.test.", 3600, "ns1.other.")}, cache.CredAuthority, true)

	r.resolveMissingGlue(context.Background(), nil, dnswire.MustName("child.test."), maxGlueDepth)
	if attempts != 0 {
		t.Errorf("glue resolution at maxGlueDepth still sent %d queries", attempts)
	}

	r.resolveMissingGlue(context.Background(), nil, dnswire.MustName("child.test."), 0)
	if attempts == 0 {
		t.Error("glue resolution below maxGlueDepth attempted nothing")
	}
}

// TestGlueBudgetBoundsFanout is the NXNSAttack regression test: a cached
// delegation naming many out-of-bailiwick servers with no glue must stop
// multiplying upstream traffic once the query's aggregate glue budget is
// spent — the budget bounds sibling fanout, not just nesting depth.
func TestGlueBudgetBoundsFanout(t *testing.T) {
	const nsCount = 24

	// run resolves the delegation's glue under ctx: one with a budget, or
	// one with no Work at all (a stage called directly).
	run := func(ctx context.Context) (attempts int, c Counters) {
		var n int
		counting := transport.Exchanger(func(context.Context, transport.Addr, *dnswire.Message) (*dnswire.Message, error) {
			n++
			return nil, transport.ErrTimeout
		})
		r := newTestResolver(t, Config{Transport: counting})
		var set []dnswire.RR
		for i := 0; i < nsCount; i++ {
			set = append(set, rrNS("victim.test.", 3600, fmt.Sprintf("ns%d.elsewhere.", i)))
		}
		r.cache.Put(set, cache.CredAuthority, true)

		r.resolveMissingGlue(ctx, nil, dnswire.MustName("victim.test."), 0)
		return n, r.Counters()
	}

	begin := newTestResolver(t, Config{}).Begin
	four := new(Work)
	begin(four, context.Background(), KindResolve)
	four.glue.Store(4)
	boundedAttempts, bounded := run(four)
	if bounded.GlueFetches != 4 {
		t.Errorf("GlueFetches = %d, want exactly the budget of 4", bounded.GlueFetches)
	}
	if bounded.GlueBudgetExhausted == 0 {
		t.Error("budget exhaustion never counted despite 24 candidate servers")
	}
	query := new(Work)
	begin(query, context.Background(), KindResolve)
	if _, query := run(query); query.GlueFetches != maxGlueFetches {
		t.Errorf("GlueFetches = %d under a client query's budget, want %d", query.GlueFetches, maxGlueFetches)
	}

	unboundedAttempts, unbounded := run(context.Background())
	if unbounded.GlueFetches != nsCount {
		t.Errorf("unbounded run fetched glue %d times, want all %d", unbounded.GlueFetches, nsCount)
	}
	if boundedAttempts >= unboundedAttempts {
		t.Errorf("budget did not reduce upstream traffic: %d attempts bounded vs %d unbounded",
			boundedAttempts, unboundedAttempts)
	}
}

// nxnsReferral serves the NXNS-shaped referral for every name under
// victim.test. — a glueless delegation to more out-of-bailiwick servers
// than one piece of work's glue budget; every other query times out.
var nxnsReferral = transport.Exchanger(func(_ context.Context, _ transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	if !q.Question[0].Name.IsSubdomainOf(dnswire.MustName("victim.test.")) {
		return nil, transport.ErrTimeout
	}
	resp := q.Reply()
	for i := 0; i < maxGlueFetches+4; i++ {
		resp.Authority = append(resp.Authority, rrNS("victim.test.", 3600, fmt.Sprintf("ns%d.elsewhere.", i)))
	}
	return resp, nil
})

// TestGlueBudgetInstalledPerQuery checks the budget rides the public
// entry point's context: two sequential ResolveChain calls each get a
// fresh pool rather than sharing one.
func TestGlueBudgetInstalledPerQuery(t *testing.T) {
	r := newTestResolver(t, Config{Transport: nxnsReferral})

	for call := 1; call <= 2; call++ {
		_, _ = r.ResolveChain(context.Background(), nil, dnswire.MustName("www.victim.test."), dnswire.TypeA)
		if got := r.Counters().GlueFetches; got != uint64(maxGlueFetches*call) {
			t.Fatalf("after call %d GlueFetches = %d, want %d (a fresh %d-fetch budget per query)",
				call, got, maxGlueFetches*call, maxGlueFetches)
		}
	}
}

// TestSOALessNegativeNotCached: RFC 2308 §5 says a negative answer without
// an SOA SHOULD NOT be cached, so the second query for a name the server
// denied without one goes upstream again; with an SOA it does not.
func TestSOALessNegativeNotCached(t *testing.T) {
	for _, withSOA := range []bool{false, true} {
		sent := 0
		nxdomain := transport.Exchanger(func(_ context.Context, _ transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
			sent++
			resp := q.Reply()
			resp.Flags.Authoritative = true
			resp.RCode = dnswire.RCodeNXDomain
			if withSOA {
				resp.Authority = []dnswire.RR{{Name: dnswire.Root, Class: dnswire.ClassIN, TTL: 300,
					Data: dnswire.SOA{MName: dnswire.MustName("a.root."), RName: dnswire.MustName("admin."), Minimum: 300}}}
			}
			return resp, nil
		})
		clk := simclock.NewVirtual(epoch)
		r := newTestResolver(t, Config{Clock: clk, Transport: nxdomain,
			Cache: cache.New(cache.Config{Clock: clk, NegativeTTL: time.Minute})})
		for i := 0; i < 2; i++ {
			res, err := r.ResolveChain(context.Background(), nil, dnswire.MustName("gone.test."), dnswire.TypeA)
			if err != nil || res.RCode != dnswire.RCodeNXDomain {
				t.Fatalf("withSOA=%v: %+v, %v; want NXDOMAIN", withSOA, res, err)
			}
		}
		if want := map[bool]int{false: 2, true: 1}[withSOA]; sent != want {
			t.Errorf("withSOA=%v: %d upstream queries for two asks, want %d", withSOA, sent, want)
		}
	}
}
