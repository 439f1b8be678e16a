package resolve

import (
	"context"
	"errors"
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
)

// The a→b→a regression: before the shared chain walker, each of the
// three CNAME-chasing modes re-implemented its own loop and a cached
// CNAME cycle could spin one of them past any sane bound. Every mode
// must now terminate within maxCNAME hops.

// putLoop caches the two-link cycle a.test. → b.test. → a.test.
func putLoop(c *cache.Cache) {
	c.Put([]dnswire.RR{rrCNAME("a.test.", "b.test.")}, cache.CredAuthority, false)
	c.Put([]dnswire.RR{rrCNAME("b.test.", "a.test.")}, cache.CredAuthority, false)
}

// TestCNAMELoopCacheHotPath: a fully cached cycle must fail the hot
// path with the chain-too-long error, not hang or answer.
func TestCNAMELoopCacheHotPath(t *testing.T) {
	r := newTestResolver(t, Config{})
	putLoop(r.cache)
	res, err := r.Lookup(nil, dnswire.MustName("a.test."), dnswire.TypeA)
	if !errors.Is(err, ErrResolutionFailed) {
		t.Fatalf("Lookup err = %v, want ErrResolutionFailed (chain too long)", err)
	}
	if res != nil {
		t.Errorf("Lookup returned an answer %+v for a CNAME cycle", res)
	}
}

// TestCNAMELoopResolveChain: the slow path walks the same cached cycle
// (each hop is served from cache, so no upstream query is ever sent)
// and must fail the same way.
func TestCNAMELoopResolveChain(t *testing.T) {
	r := newTestResolver(t, Config{})
	putLoop(r.cache)
	res, err := r.ResolveChain(context.Background(), nil, dnswire.MustName("a.test."), dnswire.TypeA)
	if !errors.Is(err, ErrResolutionFailed) {
		t.Fatalf("ResolveChain err = %v, want ErrResolutionFailed (chain too long)", err)
	}
	if res != nil {
		t.Errorf("ResolveChain returned an answer %+v for a CNAME cycle", res)
	}
	if c := r.Counters(); c.QueriesOut != 0 {
		t.Errorf("QueriesOut = %d, want 0: the cycle is fully cached", c.QueriesOut)
	}
}

// TestCNAMELoopStaleAnswer: a cycle in the stale cache must come out as
// a bounded partial chain (stale mode serves what it has; the bound is
// the walker's hop limit), never an unbounded answer.
func TestCNAMELoopStaleAnswer(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	c := cache.New(cache.Config{Clock: clk, KeepStale: 24 * time.Hour})
	r := newTestResolver(t, Config{Clock: clk, Cache: c, ServeStale: 24 * time.Hour})
	putLoop(c)
	clk.Advance(10 * time.Minute) // both CNAMEs (TTL 300) are now stale

	res := r.staleAnswer(nil, dnswire.MustName("a.test."), dnswire.TypeA)
	if res == nil {
		t.Fatal("staleAnswer returned nothing for a stale chain")
	}
	if max := maxCNAME + 1; len(res.Answer) > max {
		t.Fatalf("stale answer has %d records, want at most %d (hop bound)", len(res.Answer), max)
	}
	for _, rr := range res.Answer {
		if rr.TTL != StaleServeTTL {
			t.Errorf("stale RR served with TTL %d, want %d", rr.TTL, StaleServeTTL)
		}
	}
}

// TestWalkChainMissReportsWhere: the walker hands back the name the
// chain broke at, which ResolveChain relies on to resume after a
// partial stale prefix.
func TestWalkChainMissReportsWhere(t *testing.T) {
	r := newTestResolver(t, Config{})
	r.cache.Put([]dnswire.RR{rrCNAME("a.test.", "b.test.")}, cache.CredAuthority, false)
	// b.test. is not cached: the hot path must miss (defer to the slow
	// path), not serve the dangling CNAME.
	res, err := r.Lookup(nil, dnswire.MustName("a.test."), dnswire.TypeA)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if res != nil {
		t.Errorf("Lookup served a dangling CNAME prefix: %+v", res)
	}
}
