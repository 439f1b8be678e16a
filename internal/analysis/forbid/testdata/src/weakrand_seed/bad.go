// Package weakrand_seed is a failing fixture: math/rand seeded from
// the wall clock. This package is NOT in the banned list — wall-clock
// seeding is flagged everywhere.
package weakrand_seed

import (
	"math/rand"
	"time"
)

// NewRNG seeds from time.Now, so two callers in the same nanosecond
// get identical streams.
func NewRNG() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "math/rand seeded from time.Now is predictable"
}

// SeedGlobal seeds the global source from the wall clock.
func SeedGlobal() {
	rand.Seed(time.Now().Unix()) // want "math/rand seeded from time.Now is predictable"
}

// SeedIndirect hides the clock one call deeper; still caught.
func SeedIndirect(epoch time.Time) *rand.Source {
	s := rand.NewSource(int64(time.Since(epoch))) // want "math/rand seeded from time.Since is predictable"
	return &s
}
