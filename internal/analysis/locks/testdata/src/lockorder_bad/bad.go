// Package lockorder_bad is a failing fixture: lock-order inversions,
// direct and through a call.
package lockorder_bad

import "sync"

var muA, muB sync.Mutex

// TransferAB holds A then takes B.
func TransferAB() {
	muA.Lock()
	defer muA.Unlock()
	muB.Lock() // want "lock-order cycle"
	defer muB.Unlock()
}

// TransferBA holds B then takes A: the inversion.
func TransferBA() {
	muB.Lock()
	defer muB.Unlock()
	muA.Lock() // want "lock-order cycle"
	defer muA.Unlock()
}

// node/table invert through a call: pin holds node.mu and calls
// update, which takes table.mu — the Acquires fact carries the edge.
type node struct{ mu sync.Mutex }

type table struct{ mu sync.Mutex }

func (t *table) update() {
	t.mu.Lock()
	defer t.mu.Unlock()
}

func (n *node) pin(t *table) {
	n.mu.Lock()
	defer n.mu.Unlock()
	t.update() // want "lock-order cycle"
}

func (t *table) rebalance(n *node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n.mu.Lock() // want "lock-order cycle"
	n.mu.Unlock()
}

var _, _ = (*node).pin, (*table).rebalance
