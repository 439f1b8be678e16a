// Package simclock provides a clock abstraction so that the same caching
// server and resolver code can run against the wall clock in production and
// against a deterministic virtual clock in trace-driven simulation.
package simclock

import (
	"sync"
	"time"
)

// Clock supplies the current time. Implementations must be safe for
// concurrent use.
type Clock interface {
	Now() time.Time
}

// Real is a Clock backed by the wall clock. The zero value is ready to use.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time {
	return time.Now() //dnslint:ignore wallclock Real is the production wall-clock implementation behind the Clock interface
}

// Virtual is a deterministic clock: time only moves when Advance or
// AdvanceTo is called. It orders nothing itself — what happens at which
// virtual instant is the business of the one replay driver, sim.Fleet.
//
// The zero value starts at the zero time; use NewVirtual to pick an epoch.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtual returns a virtual clock whose current time is epoch.
func NewVirtual(epoch time.Time) *Virtual {
	return &Virtual{now: epoch}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves the clock forward by d.
func (v *Virtual) Advance(d time.Duration) {
	v.AdvanceTo(v.Now().Add(d))
}

// AdvanceTo moves the clock forward to t; a t in the past is a no-op.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.After(v.now) {
		v.now = t
	}
}
