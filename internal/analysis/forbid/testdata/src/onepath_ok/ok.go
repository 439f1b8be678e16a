// Package onepath_ok is a passing fixture: code that talks to the
// upstream only through the fetch engine's exported surface.
package onepath_ok

import "context"

// Engine caricatures resolve.Engine: Fetch is the sanctioned entry.
type Engine struct{}

func (Engine) Fetch(ctx context.Context, server string, name string) ([]byte, error) {
	return nil, nil
}

// Resolve goes through the engine; nothing to flag.
func Resolve(ctx context.Context, e Engine, server, name string) ([]byte, error) {
	return e.Fetch(ctx, server, name)
}

// ExchangeFree is a function (not a method) named Exchange: the
// transport shape requires a receiver, so this is fine.
func Exchange(ctx context.Context, pair string) string { return pair }

func Swap(ctx context.Context) string {
	return Exchange(ctx, "a/b")
}
