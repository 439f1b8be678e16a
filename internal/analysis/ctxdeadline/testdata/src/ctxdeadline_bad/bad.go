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

// StoredBackground builds a bounded wrapper, then stores Background into
// its context field: what it forwards from then on has no deadline.
func StoredBackground(tr Transport, t time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), t)
	defer cancel()
	w := &wrapped{Context: ctx, tag: 4}
	w.Context = context.Background()
	tr.Exchange(w, "10.0.0.1", nil) // want "context without a deadline"
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

// ZeroVar sends the address of a zero-value wrapper: its embedded
// context is as nil as new's.
func ZeroVar(tr Transport) {
	var w wrapped
	tr.Exchange(&w, "10.0.0.1", nil) // want "context without a deadline"
}

// FieldZero sends the address of a wrapper that is a field of another
// struct: no literal of its own set its context, so it is read as new's.
func FieldZero(tr Transport) {
	q := &struct {
		id  int
		ctx wrapped
	}{id: 1}
	tr.Exchange(&q.ctx, "10.0.0.1", nil) // want "context without a deadline"
}

// sendWrapped hands Exchange a context type of our own it was given: its
// callers answer for what it forwards.
func sendWrapped(tr Transport, w *wrapped) {
	tr.Exchange(w, "10.0.0.1", nil)
}

// ViaParam passes sendWrapped a wrapper that forwards nothing.
func ViaParam(tr Transport) {
	sendWrapped(tr, new(wrapped)) // want "context without a deadline"
}

// newWrapped is a constructor of a forwarding wrapper that takes no
// context: what its result forwards is nothing the caller can see.
func newWrapped(tag int) *wrapped {
	w := new(wrapped)
	w.tag = tag
	return w
}

// Constructed sends what the constructor built, as new(wrapped) would.
func Constructed(tr Transport) {
	tr.Exchange(newWrapped(3), "10.0.0.1", nil) // want "context without a deadline"
}
