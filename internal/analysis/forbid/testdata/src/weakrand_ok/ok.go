// Package weakrand_ok is a passing fixture: deterministic,
// fixed-seed math/rand in a simulation-style package (not in the
// banned list) is exactly what reproducible workloads want, and
// crypto/rand is always fine.
package weakrand_ok

import (
	crand "crypto/rand"
	"math/rand"
)

// Workload builds a deterministic generator from a caller-chosen seed.
func Workload(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Nonce uses crypto/rand, as security-sensitive code should.
func Nonce() ([8]byte, error) {
	var b [8]byte
	_, err := crand.Read(b[:])
	return b, err
}
