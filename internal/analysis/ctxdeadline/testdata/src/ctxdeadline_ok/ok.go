// Package ctxdeadline_ok is a passing fixture: bounded flows, wrapper
// functions, stored contexts, closure parameters, context types of our
// own that forward a deadline or carry one, and the sanctioned escape
// hatch. Any diagnostic here is a false positive.
package ctxdeadline_ok

import (
	"context"
	"time"
)

// Transport mirrors the resilientdns transport.Transport shape.
type Transport interface {
	Exchange(ctx context.Context, server string, query []byte) ([]byte, error)
}

// Bounded rebinds to a fresh variable after WithTimeout: the canonical
// way to declare a context bounded.
func Bounded(tr Transport) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	tr.Exchange(ctx, "10.0.0.1", nil)
}

// withBudget bounds its result on every return path, so it earns the
// AddsDeadline fact and launders Background for its callers.
func withBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, time.Second)
}

// Wrapped relies on the wrapper's deadline.
func Wrapped(tr Transport) {
	ctx, cancel := withBudget(context.Background())
	defer cancel()
	tr.Exchange(ctx, "10.0.0.1", nil)
}

// Spawn returns a callback whose context parameter is assumed bounded
// by whoever eventually invokes it.
func Spawn(tr Transport) func(context.Context) {
	return func(ctx context.Context) {
		tr.Exchange(ctx, "10.0.0.1", nil)
	}
}

// client stores a context; the flow is checked at the write site, not
// at every read.
type client struct {
	ctx context.Context
	tr  Transport
}

func (c *client) ping() {
	c.tr.Exchange(c.ctx, "10.0.0.1", nil)
}

// Gossip is fire-and-forget by design and says so: the escape hatch
// needs a justification to count.
func Gossip(tr Transport) {
	tr.Exchange(context.Background(), "10.0.0.1", nil) //dnslint:ignore ctxdeadline gossip sends are bounded by the connection write deadline
}

// wrapped is a context type of our own that forwards everything to the
// context it embeds.
type wrapped struct {
	context.Context
	tag int
}

// WrappedBounded wraps a bounded context: the literal forwards its
// deadline.
func WrappedBounded(tr Transport) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	tr.Exchange(&wrapped{ctx, 1}, "10.0.0.1", nil)
}

// fixed has a Deadline of its own that reports one on every path, so
// what it wraps does not matter.
type fixed struct {
	context.Context
	at time.Time
}

func (f fixed) Deadline() (time.Time, bool) { return f.at, true }

// OwnDeadline sends with a literal that carries its own deadline.
func OwnDeadline(tr Transport, at time.Time) {
	tr.Exchange(fixed{Context: context.Background(), at: at}, "10.0.0.1", nil)
}

// NewOwnDeadline sends a new literal of the same type: its Deadline
// reports one whatever the fields hold.
func NewOwnDeadline(tr Transport) {
	tr.Exchange(new(fixed), "10.0.0.1", nil)
}

var _ = (&client{}).ping
