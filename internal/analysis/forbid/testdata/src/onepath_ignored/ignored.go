// Package onepath_ignored exercises the escape hatch on the onepath
// analyzer: the fetch engine's own call site carries the one
// sanctioned annotation.
package onepath_ignored

import "context"

// Transport mirrors the resilientdns transport.Transport shape.
type Transport interface {
	Exchange(ctx context.Context, server string, query []byte) ([]byte, error)
}

// engineFetch is the sanctioned exchange path and says so.
func engineFetch(ctx context.Context, tr Transport, server string, q []byte) ([]byte, error) {
	return tr.Exchange(ctx, server, q) //dnslint:ignore onepath the fetch engine is the one sanctioned exchange path
}

// Unjustified suppressions do not count.
func sneaky(ctx context.Context, tr Transport, server string, q []byte) ([]byte, error) {
	//dnslint:ignore onepath
	return tr.Exchange(ctx, server, q) // want "direct Transport.Exchange call"
}
