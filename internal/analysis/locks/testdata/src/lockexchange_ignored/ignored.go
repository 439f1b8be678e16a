// Package lockexchange_ignored exercises the escape hatch on the
// lockexchange analyzer.
package lockexchange_ignored

import (
	"sync"
	"time"
)

// Calibrate deliberately sleeps under a lock (a test-bench shape) and
// carries its justification.
func Calibrate(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	time.Sleep(time.Millisecond) //dnslint:ignore lockexchange calibration loop, lock protects the whole bench
}

// Unjustified suppressions do not count.
func Unjustified(mu *sync.Mutex) {
	mu.Lock()
	defer mu.Unlock()
	//dnslint:ignore lockexchange
	time.Sleep(time.Millisecond) // want "call to time.Sleep while holding mu"
}
