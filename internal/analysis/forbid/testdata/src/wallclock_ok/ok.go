// Package wallclock_ok is a passing fixture: time arithmetic and an
// injected clock are fine; only reading the wall clock is not.
package wallclock_ok

import "time"

// Clock is the simclock.Clock shape: time is injected, not read.
type Clock interface {
	Now() time.Time
}

// Deadline derives a deadline from the injected clock.
func Deadline(c Clock, d time.Duration) time.Time {
	return c.Now().Add(d)
}

// Epoch is pure time arithmetic, no wall-clock read.
func Epoch() time.Time {
	return time.Unix(0, 0).Add(42 * time.Hour)
}

// Parse uses the time package without observing the clock.
func Parse(s string) (time.Time, error) {
	return time.Parse(time.RFC3339, s)
}
