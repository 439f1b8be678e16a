// Package wallclock_bad is a failing fixture: wall-clock reads in a
// determinism-critical package.
package wallclock_bad

import "time"

// Stamp reads the wall clock directly.
func Stamp() time.Time {
	return time.Now() // want "time.Now in determinism-critical package"
}

// Age measures elapsed wall time.
func Age(t time.Time) time.Duration {
	return time.Since(t) // want "time.Since in determinism-critical package"
}

// Wait blocks on the wall clock two ways.
func Wait() {
	time.Sleep(time.Second) // want "time.Sleep in determinism-critical package"
	<-time.After(time.Second) // want "time.After in determinism-critical package"
}

// Poll builds a wall-clock ticker.
func Poll() *time.Ticker {
	return time.NewTicker(time.Minute) // want "time.NewTicker in determinism-critical package"
}
