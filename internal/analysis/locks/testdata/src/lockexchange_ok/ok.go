// Package lockexchange_ok is a passing fixture: the copy-then-release
// idiom PR 1 established, and the other shapes the analyzer must not
// flag.
package lockexchange_ok

import (
	"context"
	"sync"
	"time"
)

// Transport mirrors the resilientdns transport.Transport shape.
type Transport interface {
	Exchange(ctx context.Context, server string, query []byte) ([]byte, error)
}

// Resolver snapshots state under the lock, releases, then exchanges.
type Resolver struct {
	mu      sync.Mutex
	tr      Transport
	servers []string
}

// Query is the correct idiom: lock only around the shared state.
func (r *Resolver) Query(ctx context.Context, q []byte) ([]byte, error) {
	r.mu.Lock()
	server := r.servers[0]
	r.mu.Unlock()
	return r.tr.Exchange(ctx, server, q)
}

// Spawn launches the exchange on its own goroutine: the lock holder
// does not block.
func (r *Resolver) Spawn(ctx context.Context, q []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	server := r.servers[0]
	go func() {
		r.tr.Exchange(ctx, server, q)
	}()
}

// Closure defines (but does not run) a blocking closure under the lock.
func (r *Resolver) Closure(ctx context.Context) func() {
	r.mu.Lock()
	defer r.mu.Unlock()
	return func() { time.Sleep(time.Second) }
}

// BranchRelease unlocks before the blocking call in the early-return
// branch; the fallthrough path still holds no lock by then.
func (r *Resolver) BranchRelease(ctx context.Context, fast bool) ([]byte, error) {
	r.mu.Lock()
	if fast {
		r.mu.Unlock()
		return r.tr.Exchange(ctx, "fast", nil)
	}
	r.mu.Unlock()
	return nil, nil
}

// fetch reaches Exchange, so it may block.
func (r *Resolver) fetch(ctx context.Context) {
	r.tr.Exchange(ctx, r.servers[0], nil)
}

// GoNamed spawns a may-block method under the lock: the spawner does
// not wait for it, and the new goroutine starts with nothing held.
func (r *Resolver) GoNamed(ctx context.Context) {
	r.mu.Lock()
	defer r.mu.Unlock()
	go r.fetch(ctx)
}

// LitOwnLock: a literal's critical section is its own. Its deferred
// unlock runs when the literal returns, so nothing is held across the
// enclosing function's exchange.
func (r *Resolver) LitOwnLock(ctx context.Context) ([]byte, error) {
	pick := func() string {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.servers[0]
	}
	return r.tr.Exchange(ctx, pick(), nil)
}

// shard is one lock of a sharded container.
type shard struct{ mu sync.Mutex }

// ShardsReleased takes two shards of one type and releases both before
// the exchange.
func (r *Resolver) ShardsReleased(ctx context.Context, a, b *shard) ([]byte, error) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
	return r.tr.Exchange(ctx, r.servers[0], nil)
}
