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
