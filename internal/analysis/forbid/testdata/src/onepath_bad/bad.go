// Package onepath_bad is a failing fixture: direct Transport.Exchange
// calls outside the fetch engine.
package onepath_bad

import "context"

// Transport mirrors the resilientdns transport.Transport shape.
type Transport interface {
	Exchange(ctx context.Context, server string, query []byte) ([]byte, error)
}

// conn is a concrete implementation: calls through it are just as
// forbidden as calls through the interface.
type conn struct{}

func (conn) Exchange(ctx context.Context, server string, query []byte) ([]byte, error) {
	return nil, nil
}

// Refetch bypasses the fetch engine through the interface.
func Refetch(ctx context.Context, tr Transport, server string, q []byte) ([]byte, error) {
	return tr.Exchange(ctx, server, q) // want "direct Transport.Exchange call"
}

// Probe bypasses it through a concrete transport.
func Probe(ctx context.Context) {
	var c conn
	c.Exchange(ctx, "10.0.0.1", nil) // want "direct Transport.Exchange call"
}

// exchangeLike does NOT match the shape (no context first parameter)
// and must not be flagged.
type currency struct{}

func (currency) Exchange(from, to string, amount int) int { return amount }

func Convert() int {
	var c currency
	return c.Exchange("USD", "EUR", 100)
}
