// Package lockorder_ok is a passing fixture: one consistent order,
// release-before-acquire, sharded self-locks, and the escape hatch.
// Any diagnostic here is a false positive.
package lockorder_ok

import "sync"

var muA, muB sync.Mutex

// Both holders take A before B: a consistent order is not a cycle.
func FirstPath() {
	muA.Lock()
	defer muA.Unlock()
	muB.Lock()
	defer muB.Unlock()
}

func SecondPath() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

// Sequential releases before acquiring: no edge in either direction.
func Sequential() {
	muB.Lock()
	muB.Unlock()
	muA.Lock()
	muA.Unlock()
}

// shard models the sharded cache: both sides are the same named lock,
// and sharded containers order their own shards — self-edges skipped.
type shard struct{ mu sync.Mutex }

// Transfer locks two shards of the same container.
func Transfer(a, b *shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// muInit/muState are taken in both orders only during single-threaded
// startup; both edges are reviewed and say so.
var muInit, muState sync.Mutex

func initFirst() {
	muInit.Lock()
	defer muInit.Unlock()
	muState.Lock() //dnslint:ignore lockorder single-threaded startup order, reviewed
	muState.Unlock()
}

func stateFirst() {
	muState.Lock()
	defer muState.Unlock()
	muInit.Lock() //dnslint:ignore lockorder single-threaded startup order, reviewed
	muInit.Unlock()
}

var _, _ = initFirst, stateFirst
