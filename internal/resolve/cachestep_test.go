package resolve

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
)

// The reference implementations below are the four hand-copied "answer
// one CNAME hop from cache" sequences that cacheStep replaced, kept
// verbatim (minus tracing) as the oracle TestCacheStepMatchesOldSequences
// compares the unified step against: Lookup, LookupCacheOnly, the head of
// resolveOne, and staleAnswer.

func (r *Resolver) refLookup(qname dnswire.Name, qtype dnswire.Type) (*Result, error) {
	now := r.cfg.Clock.Now()
	cr := walkChain(qname, qtype, maxCNAME, func(cur dnswire.Name) chainStep {
		if e := r.cache.Get(cur, qtype); e != nil {
			if r.prefetchDue(e, now) {
				if r.pf == nil {
					return chainStep{outcome: chainMiss}
				}
				r.pf.enqueue(cache.Key{Name: cur, Type: qtype})
			}
			return chainStep{rrs: e.RRsWithRemainingTTL(now), outcome: chainDone, fromCache: true}
		}
		if qtype != dnswire.TypeCNAME {
			if e := r.cache.Get(cur, dnswire.TypeCNAME); e != nil {
				return chainStep{rrs: e.RRsWithRemainingTTL(now), outcome: chainFollow, fromCache: true}
			}
		}
		if rcode, soa, ok := r.cache.GetNegative(cur, qtype); ok {
			return chainStep{rcode: rcode, authority: soa, outcome: chainDone, fromCache: true}
		}
		return chainStep{outcome: chainMiss}
	})
	switch {
	case cr.err != nil:
		return nil, cr.err
	case cr.exhausted:
		return nil, chainTooLong(qname)
	case cr.miss:
		return nil, nil
	}
	return &Result{RCode: cr.rcode, Answer: cr.answer, Authority: cr.authority, FromCache: true}, nil
}

func (r *Resolver) refLookupCacheOnly(qname dnswire.Name, qtype dnswire.Type) (*Result, error) {
	now := r.cfg.Clock.Now()
	cr := walkChain(qname, qtype, maxCNAME, func(cur dnswire.Name) chainStep {
		if e := r.cache.Get(cur, qtype); e != nil {
			if r.prefetchDue(e, now) && r.pf != nil {
				r.pf.enqueue(cache.Key{Name: cur, Type: qtype})
			}
			return chainStep{rrs: e.RRsWithRemainingTTL(now), outcome: chainDone, fromCache: true}
		}
		if qtype != dnswire.TypeCNAME {
			if e := r.cache.Get(cur, dnswire.TypeCNAME); e != nil {
				return chainStep{rrs: e.RRsWithRemainingTTL(now), outcome: chainFollow, fromCache: true}
			}
		}
		if rcode, soa, ok := r.cache.GetNegative(cur, qtype); ok {
			return chainStep{rcode: rcode, authority: soa, outcome: chainDone, fromCache: true}
		}
		if r.cache.KeepStale() > 0 {
			e := r.cache.GetStale(cur, qtype)
			if e == nil && qtype != dnswire.TypeCNAME {
				e = r.cache.GetStale(cur, dnswire.TypeCNAME)
			}
			if e != nil {
				metrics.Inc(&r.counters.StaleAnswers)
				rrs := make([]dnswire.RR, len(e.RRs))
				copy(rrs, e.RRs)
				for i := range rrs {
					rrs[i].TTL = StaleServeTTL
				}
				return chainStep{rrs: rrs, outcome: chainFollow, fromCache: true}
			}
		}
		return chainStep{outcome: chainMiss}
	})
	switch {
	case cr.err != nil:
		return nil, cr.err
	case cr.exhausted:
		return nil, chainTooLong(qname)
	case cr.miss:
		return nil, nil
	}
	return &Result{RCode: cr.rcode, Answer: cr.answer, Authority: cr.authority, FromCache: true}, nil
}

func (r *Resolver) refResolveChain(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*Result, error) {
	ctx = withBudget(ctx, glueKey, maxGlueFetches)
	cr := walkChain(qname, qtype, maxCNAME, func(cur dnswire.Name) chainStep {
		res, err := r.refResolveOne(ctx, cur, qtype, 0)
		if err != nil {
			return chainStep{err: err}
		}
		out := chainFollow
		if res.RCode != dnswire.RCodeNoError {
			out = chainDone
		}
		return chainStep{rrs: res.Answer, authority: res.Authority, rcode: res.RCode, outcome: out, fromCache: res.FromCache}
	})
	switch {
	case cr.err != nil:
		return nil, cr.err
	case cr.exhausted:
		return nil, chainTooLong(qname)
	}
	return &Result{RCode: cr.rcode, Answer: cr.answer, Authority: cr.authority, FromCache: cr.fromCache}, nil
}

func (r *Resolver) refResolveOne(ctx context.Context, qname dnswire.Name, qtype dnswire.Type, depth int) (*Result, error) {
	now := r.cfg.Clock.Now()
	if e := r.cache.Get(qname, qtype); e != nil {
		r.refMaybePrefetch(ctx, e, qname, qtype, depth, now)
		return &Result{RCode: dnswire.RCodeNoError, Answer: e.RRsWithRemainingTTL(now), FromCache: true}, nil
	}
	if qtype != dnswire.TypeCNAME {
		if e := r.cache.Get(qname, dnswire.TypeCNAME); e != nil {
			return &Result{RCode: dnswire.RCodeNoError, Answer: e.RRsWithRemainingTTL(now), FromCache: true}, nil
		}
	}
	if rcode, soa, ok := r.cache.GetNegative(qname, qtype); ok {
		return &Result{RCode: rcode, Authority: soa, FromCache: true}, nil
	}
	res, _, err := r.iterate(ctx, nil, qname, qtype, depth, false, false)
	if err != nil && r.cache.KeepStale() > 0 {
		if res2, _, err2 := r.iterate(ctx, nil, qname, qtype, depth, false, true); err2 == nil {
			return res2, nil
		}
		if stale := r.refStaleAnswer(qname, qtype); stale != nil {
			return stale, nil
		}
	}
	return res, err
}

func (r *Resolver) refMaybePrefetch(ctx context.Context, e *cache.Entry, qname dnswire.Name, qtype dnswire.Type, depth int, now time.Time) {
	if !r.cfg.Prefetch || depth > 0 {
		return
	}
	if e.Expires().Sub(now) > e.OrigTTL()/10 {
		return
	}
	if r.pf != nil {
		r.pf.enqueue(cache.Key{Name: qname, Type: qtype})
		return
	}
	metrics.Inc(&r.counters.PrefetchQueries)
	if _, _, err := r.iterate(ctx, nil, qname, qtype, depth+1, false, false); err == nil {
		r.cache.Extend(qname, qtype)
	}
}

func (r *Resolver) refStaleAnswer(qname dnswire.Name, qtype dnswire.Type) *Result {
	cr := walkChain(qname, qtype, maxCNAME, func(cur dnswire.Name) chainStep {
		e := r.cache.GetStale(cur, qtype)
		if e == nil && qtype != dnswire.TypeCNAME {
			e = r.cache.GetStale(cur, dnswire.TypeCNAME)
		}
		if e == nil {
			return chainStep{outcome: chainMiss}
		}
		metrics.Inc(&r.counters.StaleAnswers)
		rrs := make([]dnswire.RR, len(e.RRs))
		copy(rrs, e.RRs)
		for i := range rrs {
			rrs[i].TTL = StaleServeTTL
		}
		return chainStep{rrs: rrs, outcome: chainFollow, fromCache: true}
	})
	if len(cr.answer) == 0 {
		return nil
	}
	return &Result{RCode: dnswire.RCodeNoError, Answer: cr.answer, FromCache: true}
}

// TestCacheStepMatchesOldSequences runs every cache-serving entry point
// against the sequence it used to hand-copy, on twin resolvers primed
// identically, and requires the same Result and error and the same side
// effects: cache hit ratio and stale hits, gap tombstones reported, and
// pipeline counters. The upstream is dead, so whatever a path cannot
// serve from cache fails the same way on both sides. Result.Entry, which
// the old sequences did not report, is set by the two cache lookups on a
// live exact hit outside the prefetch window and by nothing else.
func TestCacheStepMatchesOldSequences(t *testing.T) {
	www := dnswire.MustName("www.test.")
	put := func(r *Resolver, rrs ...dnswire.RR) {
		for _, rr := range rrs {
			r.cache.Put([]dnswire.RR{rr}, cache.CredAuthority, false)
		}
	}
	cname := func(name, target string, ttl uint32) dnswire.RR {
		rr := rrCNAME(name, target)
		rr.TTL = ttl
		return rr
	}
	soa := dnswire.RR{Name: dnswire.MustName("test."), Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.SOA{MName: dnswire.MustName("ns.test."), RName: dnswire.MustName("admin.test."), Minimum: 3600}}
	scenarios := []struct {
		name  string
		cfg   Config
		cc    cache.Config // Clock and OnGap filled by the harness
		setup func(r *Resolver, clk *simclock.Virtual)
	}{
		{name: "live-hit", setup: func(r *Resolver, _ *simclock.Virtual) {
			put(r, rrA("www.test.", 300, "10.1.1.1"))
		}},
		{name: "cname-chain", setup: func(r *Resolver, clk *simclock.Virtual) {
			put(r, cname("www.test.", "a.test.", 300), cname("a.test.", "b.test.", 200), rrA("b.test.", 100, "10.1.1.2"))
			clk.Advance(40 * time.Second)
		}},
		{name: "chain-longer-than-MaxCNAME", setup: func(r *Resolver, _ *simclock.Virtual) {
			// maxCNAME+1 links: www.test. → c1.test. → … → c9.test.
			from := "www.test."
			for i := 1; i <= maxCNAME+1; i++ {
				to := fmt.Sprintf("c%d.test.", i)
				put(r, cname(from, to, 300))
				from = to
			}
		}},
		{name: "negative-hit", cc: cache.Config{NegativeTTL: time.Minute}, setup: func(r *Resolver, clk *simclock.Virtual) {
			r.cache.PutNegative(www, dnswire.TypeA, dnswire.RCodeNXDomain, []dnswire.RR{soa})
			clk.Advance(20 * time.Second)
		}},
		{name: "negative-behind-cname", cc: cache.Config{NegativeTTL: time.Minute}, setup: func(r *Resolver, _ *simclock.Virtual) {
			put(r, cname("www.test.", "gone.test.", 300))
			r.cache.PutNegative(dnswire.MustName("gone.test."), dnswire.TypeA, dnswire.RCodeNoError, []dnswire.RR{soa})
		}},
		{name: "prefetch-window-inline", cfg: Config{Prefetch: true}, setup: func(r *Resolver, clk *simclock.Virtual) {
			put(r, rrA("www.test.", 300, "10.1.1.1"))
			clk.Advance(280 * time.Second)
		}},
		{name: "prefetch-window-async", cfg: Config{Prefetch: true, AsyncPrefetch: true}, setup: func(r *Resolver, clk *simclock.Virtual) {
			put(r, rrA("www.test.", 300, "10.1.1.1"))
			clk.Advance(280 * time.Second)
		}},
		{name: "expired-no-stale", setup: func(r *Resolver, clk *simclock.Virtual) {
			put(r, rrA("www.test.", 60, "10.1.1.1"))
			clk.Advance(2 * time.Minute) // the Get retires it and reports the gap
		}},
		{name: "stale-only", cc: cache.Config{KeepStale: time.Hour}, setup: func(r *Resolver, clk *simclock.Virtual) {
			put(r, cname("www.test.", "a.test.", 60), rrA("a.test.", 60, "10.1.1.3"))
			clk.Advance(10 * time.Minute)
		}},
		{name: "live-prefix-stale-tail", cc: cache.Config{KeepStale: time.Hour}, setup: func(r *Resolver, clk *simclock.Virtual) {
			put(r, cname("www.test.", "a.test.", 3600), rrA("a.test.", 60, "10.1.1.3"))
			clk.Advance(10 * time.Minute)
		}},
		{name: "stale-prefix-only", cc: cache.Config{KeepStale: time.Hour}, setup: func(r *Resolver, clk *simclock.Virtual) {
			put(r, cname("www.test.", "a.test.", 60))
			clk.Advance(10 * time.Minute)
		}},
		{name: "cold-miss", setup: func(*Resolver, *simclock.Virtual) {}},
	}
	ops := []struct {
		name     string
		new, ref func(r *Resolver) (*Result, error)
	}{
		{"Lookup",
			func(r *Resolver) (*Result, error) { return r.Lookup(nil, www, dnswire.TypeA) },
			func(r *Resolver) (*Result, error) { return r.refLookup(www, dnswire.TypeA) }},
		{"LookupCacheOnly",
			func(r *Resolver) (*Result, error) { return r.LookupCacheOnly(nil, www, dnswire.TypeA) },
			func(r *Resolver) (*Result, error) { return r.refLookupCacheOnly(www, dnswire.TypeA) }},
		{"ResolveChain", // resolveOne's head, then staleAnswer once iterate fails
			func(r *Resolver) (*Result, error) {
				return r.ResolveChain(context.Background(), nil, www, dnswire.TypeA)
			},
			func(r *Resolver) (*Result, error) { return r.refResolveChain(context.Background(), www, dnswire.TypeA) }},
		{"resolveOne-nested", // depth > 0 never prefetches
			func(r *Resolver) (*Result, error) {
				return r.resolveOne(context.Background(), nil, www, dnswire.TypeA, 1)
			},
			func(r *Resolver) (*Result, error) {
				return r.refResolveOne(context.Background(), www, dnswire.TypeA, 1)
			}},
	}

	// observed is everything a cache-serving path may change or return.
	type observed struct {
		Res       *Result
		Entry     bool // Res.Entry set
		Err       string
		HitRate   float64
		StaleHits uint64
		Gaps      []string
		Counters  Counters
	}
	for _, sc := range scenarios {
		for _, op := range ops {
			t.Run(sc.name+"/"+op.name, func(t *testing.T) {
				run := func(f func(*Resolver) (*Result, error)) observed {
					clk := simclock.NewVirtual(epoch)
					var mu sync.Mutex
					var gaps []string
					cfg, cc := sc.cfg, sc.cc
					cfg.Clock, cc.Clock = clk, clk
					cc.OnGap = func(k cache.Key, gap, ttl time.Duration) {
						mu.Lock()
						gaps = append(gaps, fmt.Sprintf("%s/%s gap=%v ttl=%v", k.Name, k.Type, gap, ttl))
						mu.Unlock()
					}
					cfg.Cache = cache.New(cc)
					r := newTestResolver(t, cfg)
					sc.setup(r, clk)
					res, err := f(r)
					r.Close() // async mode: the queued refresh has run on both sides
					o := observed{Res: res, Err: fmt.Sprint(err), HitRate: r.cache.HitRate(),
						StaleHits: r.cache.StaleHits(), Gaps: gaps, Counters: r.Counters()}
					if res != nil {
						bare := *res
						o.Entry, bare.Entry = res.Entry != nil, nil
						o.Res = &bare
					}
					return o
				}
				got, want := run(op.new), run(op.ref)
				want.Entry = sc.name == "live-hit" && (op.name == "Lookup" || op.name == "LookupCacheOnly")
				if !reflect.DeepEqual(got, want) {
					t.Errorf("unified step diverges from the old sequence:\n got  %+v (res %+v)\n want %+v (res %+v)",
						got, got.Res, want, want.Res)
				}
			})
		}
	}
}
