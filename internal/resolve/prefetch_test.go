package resolve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// prefetchFixture builds an async-prefetch resolver with one cached A
// record sitting inside its prefetch window.
func prefetchFixture(t *testing.T, cfg Config) *Resolver {
	t.Helper()
	clk := simclock.NewVirtual(epoch)
	cfg.Clock = clk
	cfg.Cache = cache.New(cache.Config{Clock: clk})
	cfg.Prefetch = true
	cfg.AsyncPrefetch = true
	r := newTestResolver(t, cfg)
	r.cache.Put([]dnswire.RR{rrA("www.test.", 300, "10.1.1.1")}, cache.CredAuthority, false)
	clk.Advance(280 * time.Second) // 20s of 300s left: inside the window
	return r
}

// TestPrefetchDedupsInflight: repeated hits on the same key while its
// prefetch is still running must collapse into one upstream refresh
// (the singleflight property of the worker pool).
func TestPrefetchDedupsInflight(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	blocking := transport.Exchanger(func(context.Context, transport.Addr, *dnswire.Message) (*dnswire.Message, error) {
		calls.Add(1)
		<-gate
		return nil, transport.ErrTimeout
	})
	r := prefetchFixture(t, Config{Transport: blocking})

	www := dnswire.MustName("www.test.")
	for i := 0; i < 50; i++ {
		if res, err := r.Lookup(nil, www, dnswire.TypeA); err != nil || res == nil {
			t.Fatalf("Lookup #%d = %+v, %v: async mode must serve the hit", i, res, err)
		}
	}
	close(gate)
	r.Close() // drains the one in-flight refresh
	if n := calls.Load(); n != 1 {
		t.Errorf("upstream calls = %d, want 1: in-flight prefetch not deduplicated", n)
	}
}

// TestPrefetchQueueDropsNeverBlock: enqueues beyond the queue bound are
// dropped; the hot path must never block behind a full prefetch queue.
func TestPrefetchQueueDropsNeverBlock(t *testing.T) {
	gate := make(chan struct{})
	blocking := transport.Exchanger(func(context.Context, transport.Addr, *dnswire.Message) (*dnswire.Message, error) {
		<-gate
		return nil, transport.ErrTimeout
	})
	r := prefetchFixture(t, Config{Transport: blocking})

	// Distinct keys so the inflight dedup cannot absorb them: the workers
	// are gated, the queue fills, everything further must drop.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3*(prefetchWorkers+prefetchQueue); i++ {
			r.pf.enqueue(cache.Key{Name: dnswire.MustName("www.test."), Type: dnswire.Type(1000 + i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue blocked on a full prefetch queue")
	}
	close(gate)
	r.Close()
}

// TestPrefetchHammer drives the worker pool from many goroutines at
// once so the -race pass covers the enqueue/worker/close paths.
func TestPrefetchHammer(t *testing.T) {
	r := prefetchFixture(t, Config{})
	www := dnswire.MustName("www.test.")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if res, err := r.Lookup(nil, www, dnswire.TypeA); err != nil || res == nil {
					t.Errorf("Lookup = %+v, %v", res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r.Close()
	r.Close() // idempotent
}

// TestPrefetchCloseConcurrentWithEnqueue: closing the pool while other
// goroutines are still enqueuing must neither panic (send on closed
// channel) nor deadlock; late enqueues are simply dropped.
func TestPrefetchCloseConcurrentWithEnqueue(t *testing.T) {
	r := prefetchFixture(t, Config{})

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 500; i++ {
				r.pf.enqueue(cache.Key{Name: dnswire.MustName("www.test."), Type: dnswire.Type(g*1000 + i)})
			}
		}(g)
	}
	close(start)
	r.Close()
	wg.Wait()
}
