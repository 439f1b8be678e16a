// Package lockexchange_bad is a failing fixture: mutexes held across
// calls that block on upstream I/O.
package lockexchange_bad

import (
	"context"
	"sync"
	"time"
)

// Transport mirrors the resilientdns transport.Transport shape.
type Transport interface {
	Exchange(ctx context.Context, server string, query []byte) ([]byte, error)
}

// Resolver is a caricature of the seed resolver's global-lock design.
type Resolver struct {
	mu sync.Mutex
	tr Transport
}

// Query holds the lock across the upstream exchange: the PR 1 bug.
func (r *Resolver) Query(ctx context.Context, server string, q []byte) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr.Exchange(ctx, server, q) // want "call to Exchange \\(upstream query\\) while holding r.mu"
}

// SleepUnderLock blocks on the clock with the lock held.
func (r *Resolver) SleepUnderLock() {
	r.mu.Lock()
	time.Sleep(time.Second) // want "call to time.Sleep while holding r.mu"
	r.mu.Unlock()
}

// refetch reaches Exchange; callers that lock around it are flagged
// via same-package propagation.
func (r *Resolver) refetch(ctx context.Context, server string) ([]byte, error) {
	return r.tr.Exchange(ctx, server, nil)
}

// Renew holds the lock across a helper that reaches blocking I/O.
func (r *Resolver) Renew(ctx context.Context, server string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.refetch(ctx, server) // want "call to refetch \\(reaches blocking I/O\\) while holding r.mu"
	return err
}

// RWUnderRLock shows RLock is tracked too.
func (r *Resolver) RWUnderRLock(ctx context.Context, state *sync.RWMutex) ([]byte, error) {
	state.RLock()
	defer state.RUnlock()
	return r.tr.Exchange(ctx, "a", nil) // want "call to Exchange \\(upstream query\\) while holding state"
}

// BranchUnlockJoin releases on one branch only: after the join the lock
// may still be held.
func (r *Resolver) BranchUnlockJoin(ctx context.Context, early bool) ([]byte, error) {
	r.mu.Lock()
	if early {
		r.mu.Unlock()
	}
	return r.tr.Exchange(ctx, "a", nil) // want "call to Exchange \\(upstream query\\) while holding r.mu: no lock"
}

// shard is one lock of a sharded container: every instance's mu is the
// same declaration, but holding one says nothing about the other.
type shard struct {
	mu sync.Mutex
	tr Transport
}

// TwoShards releases a.mu and exchanges with b.mu still held.
func TwoShards(ctx context.Context, a, b *shard) ([]byte, error) {
	a.mu.Lock()
	b.mu.Lock()
	a.mu.Unlock()
	defer b.mu.Unlock()
	return a.tr.Exchange(ctx, "a", nil) // want "call to Exchange \\(upstream query\\) while holding b.mu: no lock"
}

// DeferredShard: a deferred unlock holds a.mu to the end, whatever
// happens to the sibling shard in between.
func DeferredShard(ctx context.Context, a, b *shard) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
	return b.tr.Exchange(ctx, "b", nil) // want "call to Exchange \\(upstream query\\) while holding a.mu: no lock"
}
