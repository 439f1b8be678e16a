// Package onepath_outofscope has the forbidden shape but is not in the
// analyzer's scope: transport internals and the CLIs over them exchange
// on their own behalf legitimately.
package onepath_outofscope

import "context"

// Transport mirrors the resilientdns transport.Transport shape.
type Transport interface {
	Exchange(ctx context.Context, server string, query []byte) ([]byte, error)
}

// TCPFallback is the transport-internal retry shape: no diagnostics,
// the package is out of scope.
func TCPFallback(ctx context.Context, tr Transport, server string, q []byte) ([]byte, error) {
	return tr.Exchange(ctx, server, q)
}
