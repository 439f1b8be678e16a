package guard

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
)

// atomicBackend is a goroutine-safe fake for the hammer.
type atomicBackend struct {
	queries, cacheOnly atomic.Uint64
}

func (b *atomicBackend) HandleQuery(q *dnswire.Message) *dnswire.Message {
	b.queries.Add(1)
	return q.Reply()
}

func (b *atomicBackend) HandleQueryCacheOnly(q *dnswire.Message) *dnswire.Message {
	b.cacheOnly.Add(1)
	return q.Reply()
}

// TestLimiterHammer drives the guard from many goroutines with a large
// spoofed address space — the shape of a spoofed-source flood — and
// checks, under the race detector, that the limiter's memory stays
// bounded at MaxClients and the decision counters account for every
// query exactly once.
func TestLimiterHammer(t *testing.T) {
	const (
		workers    = 16
		perWorker  = 2000
		maxClients = 512
	)
	counters := metrics.NewSet[metrics.GuardCounters]()
	be := &atomicBackend{}
	// The wall clock is fine here: the test asserts bounds and
	// accounting, not exact admit decisions.
	g := New(be, Config{
		ClientRPS: 5, Slip: 2, MaxClients: maxClients,
		Clock: simclock.Real{}, Counters: counters,
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Spoofed /16: 65536 distinct sources, far more than
				// the limiter is allowed to remember.
				addr := &net.UDPAddr{
					IP:   net.ParseIP(fmt.Sprintf("10.%d.%d.%d", w, i>>8, i&0xff)),
					Port: 1024 + i,
				}
				q := dnswire.NewQuery(uint16(i), dnswire.MustName("www.example.com."), dnswire.TypeA)
				q.Flags.RecursionDesired = true
				if resp := g.HandleQueryFrom(q, addr); resp != nil && resp.Flags.Truncated {
					if len(resp.Answer) != 0 {
						t.Error("slip reply carries answers")
						return
					}
				}
				// Interleave overload arrivals on the same addresses, the
				// way the read loop delivers them: admitted inline first.
				if i%7 == 0 {
					if _, _, done := g.HandleInline(inlineQuery(q, addr.AddrPort()), nil); !done {
						g.HandleOverload(q)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if n := g.limiter.clientCount(); n > maxClients {
		t.Errorf("limiter tracks %d clients after the flood, bound is %d", n, maxClients)
	}
	gs := metrics.Snapshot(counters)
	total := workers * perWorker
	overloads := 0
	for i := 0; i < perWorker; i++ {
		if i%7 == 0 {
			overloads++
		}
	}
	total += workers * overloads
	if got := gs.Allowed + gs.RateLimited; got != uint64(total) {
		t.Errorf("allowed+limited = %d, want every query decided exactly once (%d)", got, total)
	}
	if gs.Slips > gs.RateLimited {
		t.Errorf("slips (%d) exceed rate-limited queries (%d)", gs.Slips, gs.RateLimited)
	}
	// Overload arrivals that passed the limiter were shed (degraded mode
	// off) — none may have reached the recursive entry point's cache-only
	// sibling.
	if n := be.cacheOnly.Load(); n != 0 {
		t.Errorf("cache-only entry point called %d times with degraded mode off", n)
	}
}
