package resolve

import (
	"sync"

	"resilientdns/internal/cache"
)

const (
	// prefetchWorkers and prefetchQueue size the background pool. The
	// queue holds a few bursts of distinct hot keys entering their
	// prefetch window at once; past it, refreshes are dropped, never
	// blocked on.
	prefetchWorkers = 2
	prefetchQueue   = 64
)

// prefetcher is the bounded background worker pool that takes prefetch
// refetches off the client's critical path. Keys arriving while the same
// key is queued or in flight are dropped (singleflight semantics), and a
// full queue drops new keys rather than blocking the hot path: a missed
// prefetch only means the next query may pay a normal resolution.
type prefetcher struct {
	r *Resolver

	mu       sync.Mutex
	inflight map[cache.Key]bool
	closed   bool

	ch chan cache.Key
	wg sync.WaitGroup
}

// newPrefetcher starts the worker pool.
func newPrefetcher(r *Resolver) *prefetcher {
	pf := &prefetcher{
		r:        r,
		inflight: make(map[cache.Key]bool),
		ch:       make(chan cache.Key, prefetchQueue),
	}
	pf.wg.Add(prefetchWorkers)
	for i := 0; i < prefetchWorkers; i++ {
		go pf.worker()
	}
	return pf
}

// enqueue hands a key to the pool without ever blocking. Duplicate keys
// and overflow are dropped under the same lock that guards close, so a
// send can never race a close(ch).
func (pf *prefetcher) enqueue(k cache.Key) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed || pf.inflight[k] {
		return
	}
	select {
	case pf.ch <- k:
		pf.inflight[k] = true
	default:
		// Queue full: drop. The entry is still live; the next query in
		// the prefetch window retries.
	}
}

// worker drains the queue until close.
func (pf *prefetcher) worker() {
	defer pf.wg.Done()
	for k := range pf.ch {
		pf.run(k)
		pf.mu.Lock()
		delete(pf.inflight, k)
		pf.mu.Unlock()
	}
}

// run performs one background refresh under a prefetch's own Work.
func (pf *prefetcher) run(k cache.Key) {
	r := pf.r
	var w Work
	r.Begin(&w, nil, KindPrefetch)
	tr := r.NewTrace(KindPrefetch, k.Name, k.Type)
	r.FinishTrace(tr, nil, r.refresh(&w, tr, k.Name, k.Type))
}

// close stops the pool and waits for in-flight refreshes to finish.
func (pf *prefetcher) close() {
	pf.mu.Lock()
	if pf.closed {
		pf.mu.Unlock()
		return
	}
	pf.closed = true
	close(pf.ch)
	pf.mu.Unlock()
	pf.wg.Wait()
}
