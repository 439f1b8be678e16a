package core

import (
	"context"
	"sync"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/resolve"
)

// flightTimeout is the hard ceiling on one detached flight. A flight
// deliberately outlives any single caller (a cancelled leader hands off
// to the remaining waiters), so no caller's deadline bounds it — without
// its own ceiling a black-holed upstream chain would pin the flight
// goroutine and its table slot indefinitely. Generous compared to the
// frontend's per-query budget: the flight only needs to die eventually,
// waiters give up on their own schedule. It rides in the flight's retry
// budget, not in a context deadline: no attempt starts at or after it,
// and none is given a deadline past it.
const flightTimeout = 30 * time.Second

// flightCall is one in-flight resolution of a (name, type) pair shared by
// every concurrent Resolve call asking the same question.
type flightCall struct {
	// done closes when res/err are final; they are written before the
	// close and only read after it.
	done chan struct{}
	// cancel aborts the flight's resolution context. Called only when
	// the last waiter leaves (see abandonFlight): a cancelled leader
	// hands the flight off to the remaining waiters rather than failing
	// them.
	cancel context.CancelFunc
	// waiters counts callers blocked on done; guarded by cs.flightMu so
	// joining and abandoning serialize (a joiner can never slip in after
	// the "last" waiter left and latch onto a cancelled flight).
	waiters int

	res *Result
	err error
}

// resolveCoalesced resolves qname/qtype through the in-flight table: the
// first caller for a key starts the resolution on a warm goroutine
// (cs.flights), and later callers for the same key wait on the existing
// flight. The resolution runs under a context detached from any single
// caller, so a cancelled caller only aborts the upstream work when no
// other caller is still waiting on it. A caller waits until ctx is done
// or, when timeout is positive, for timeout at most; either way it leaves
// through abandonFlight.
func (cs *CachingServer) resolveCoalesced(ctx context.Context, timeout time.Duration, tr *resolve.Trace, qname dnswire.Name, qtype dnswire.Type) (*Result, error) {
	key := cache.Key{Name: qname, Type: qtype}

	cs.flightMu.Lock()
	c, joined := cs.flight[key]
	if !joined {
		fctx, fcancel := context.WithCancel(context.Background())
		c = &flightCall{done: make(chan struct{}), cancel: fcancel}
		cs.flight[key] = c
		cs.flights.Go(func() { cs.runFlight(fctx, key, c) })
	}
	c.waiters++
	cs.flightMu.Unlock()
	if joined {
		metrics.Inc(&cs.stats.Coalesced)
		tr.MarkCoalesced()
	}

	var expired <-chan time.Time
	if timeout > 0 {
		t := waitTimers.Get().(*time.Timer)
		t.Reset(timeout)
		defer putWaitTimer(t)
		expired = t.C
	}
	select {
	case <-c.done:
		// The result is shared across waiters; Result and its Answer
		// slice are treated as immutable by all callers.
		return c.res, c.err
	case <-ctx.Done():
		cs.abandonFlight(key, c)
		return nil, ctx.Err()
	case <-expired:
		cs.abandonFlight(key, c)
		return nil, context.DeadlineExceeded
	}
}

// waitTimers recycles the timers that bound a waiter's wait: each waiter
// has its own, and none is allocated per miss.
var waitTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// putWaitTimer stops t, drains a tick it fired that nobody received, and
// returns it to waitTimers.
func putWaitTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	waitTimers.Put(t)
}

// runFlight performs the actual resolution for one flight and publishes
// the outcome. It always detaches the flight from the table before
// closing done, so no waiter can observe a completed flight in the map.
// The flight serves every coalesced waiter, so it carries its own trace
// (KindResolve) rather than borrowing any single caller's: a trace
// belongs to one goroutine, and the callers' traces live on theirs.
func (cs *CachingServer) runFlight(fctx context.Context, key cache.Key, c *flightCall) {
	// The whole flight — every referral step, nested glue fetch, and
	// failover attempt — draws from one upstream retry budget, which also
	// carries the flight's ceiling. Cancelling fctx (the last waiter
	// left) stops the flight at its next attempt boundary; the attempt
	// under way runs to its own deadline, so a server that was about to
	// answer is neither blamed nor wasted.
	fctx = resolve.WithRetryBudget(fctx, cs.cfg.Upstream.RetryBudget, cs.cfg.Clock.Now().Add(flightTimeout))
	ftr := cs.resolver.NewTrace(resolve.KindResolve, key.Name, key.Type)
	res, err := cs.resolver.ResolveChain(fctx, ftr, key.Name, key.Type)
	cs.resolver.FinishTrace(ftr, res, err)

	cs.flightMu.Lock()
	if cs.flight[key] == c {
		delete(cs.flight, key)
	}
	cs.flightMu.Unlock()

	c.res, c.err = res, err
	close(c.done)
	c.cancel()
}

// abandonFlight removes a departing waiter from c and, when it was the
// last one, cancels the flight's resolution and retires the flight from
// the table so the next caller starts fresh.
func (cs *CachingServer) abandonFlight(key cache.Key, c *flightCall) {
	cs.flightMu.Lock()
	c.waiters--
	if c.waiters > 0 {
		cs.flightMu.Unlock()
		return
	}
	// Guard against racing a newer flight under the same key: only
	// retire c itself. runFlight may already have detached it.
	if cs.flight[key] == c {
		delete(cs.flight, key)
	}
	cs.flightMu.Unlock()
	c.cancel()
}
