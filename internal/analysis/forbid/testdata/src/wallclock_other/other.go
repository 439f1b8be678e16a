// Package wallclock_other is not in the analyzer's package list: the
// wall clock is allowed here (production server paths read real time).
package wallclock_other

import "time"

// Now is fine outside determinism-critical packages.
func Now() time.Time {
	return time.Now()
}
