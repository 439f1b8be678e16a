// Package weakrand_banned is a failing fixture standing in for a
// security-sensitive package (the test adds it to -weakrand.pkgs):
// any math/rand use is flagged, because query IDs, ports, and nonces
// must come from crypto/rand.
package weakrand_banned

import "math/rand"

// QueryID draws a QID from math/rand: guessable.
func QueryID() uint16 {
	return uint16(rand.Intn(1 << 16)) // want "math/rand.Intn in security-sensitive package"
}

// SourcePort draws from a local generator; the method call is caught too.
func SourcePort(r *rand.Rand) int {
	return 1024 + r.Intn(64511) // want "math/rand.Intn in security-sensitive package"
}

// Annotated carries a justified suppression and is not flagged.
func Annotated(r *rand.Rand) int {
	return r.Intn(6) //dnslint:ignore weakrand dice roll for jitter only, not an identifier
}
