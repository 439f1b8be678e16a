// Package lockorder_stale exercises stale-suppression detection: the
// inversion was fixed, the directive stayed behind.
package lockorder_stale

import "sync"

var muA, muB sync.Mutex

// Consistent now takes A before B like everyone else; the directive
// suppresses nothing and must be deleted.
func Consistent() {
	muA.Lock()
	defer muA.Unlock()
	muB.Lock() //dnslint:ignore lockorder legacy suppression // want "stale"
	muB.Unlock()
}
