// Package ctxdeadline_bad is a failing fixture: contexts born from
// Background/TODO reach an Exchange-shaped sink without ever being
// bounded.
package ctxdeadline_bad

import (
	"context"
	"time"
)

// Transport mirrors the resilientdns transport.Transport shape.
type Transport interface {
	Exchange(ctx context.Context, server string, query []byte) ([]byte, error)
}

// Probe sends with a bare Background: unbounded.
func Probe(tr Transport) {
	tr.Exchange(context.Background(), "10.0.0.1", nil) // want "context without a deadline"
}

// Cancellable derives from Background through WithCancel: cancellation
// is not a deadline, so the flow is still unbounded.
func Cancellable(tr Transport) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr.Exchange(ctx, "10.0.0.1", nil) // want "context without a deadline"
}

// Conditional only sometimes wraps: the unwrapped path survives the
// union over definitions.
func Conditional(tr Transport, t time.Duration) {
	ctx := context.TODO()
	if t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	tr.Exchange(ctx, "10.0.0.1", nil) // want "context without a deadline"
}

// wrapped is a context type of our own: it forwards everything, Deadline
// included, to the context it embeds.
type wrapped struct {
	context.Context
	tag int
}

// Wrapper hides Background inside a literal of its own context type: the
// literal is exactly as bounded as what it forwards, here nothing.
func Wrapper(tr Transport) {
	tr.Exchange(&wrapped{Context: context.Background(), tag: 1}, "10.0.0.1", nil) // want "context without a deadline"
}

// Unset leaves the embedded context nil: a literal that forwards nothing
// has no deadline to offer.
func Unset(tr Transport) {
	ctx := &wrapped{tag: 2}
	tr.Exchange(ctx, "10.0.0.1", nil) // want "context without a deadline"
}

// forever has a Deadline of its own that reports none, whatever it wraps.
type forever struct{ context.Context }

func (forever) Deadline() (time.Time, bool) { return time.Time{}, false }

// Forever wraps a bounded context in a type that hides its deadline.
func Forever(tr Transport, t time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), t)
	defer cancel()
	tr.Exchange(forever{ctx}, "10.0.0.1", nil) // want "context without a deadline"
}

// Parenthesised hides the same Background wrapper behind parentheses.
func Parenthesised(tr Transport) {
	tr.Exchange((&wrapped{Context: context.Background()}), "10.0.0.1", nil) // want "context without a deadline"
}

// Zero sends a new wrapper, whose embedded context is nil.
func Zero(tr Transport) {
	tr.Exchange(new(wrapped), "10.0.0.1", nil) // want "context without a deadline"
}
