package mesh

import (
	"hash/fnv"

	"resilientdns/internal/dnswire"
)

// Renewal ownership uses rendezvous (highest-random-weight) hashing:
// every member independently scores each (member, zone) pair and the
// highest score owns the zone's renewal duty. With a consistent
// membership view all members agree on every owner with no
// coordination, and a member joining or dying only reassigns the zones
// it owned (1/N of them) instead of reshuffling everything, so a
// failure never triggers a fleet-wide renewal storm.

// rendezvousWeight scores one (member, zone) pair. FNV-1a is fine here:
// the weight only balances load and must be deterministic across the
// fleet; it is not an authentication boundary (frames are HMAC'd).
func rendezvousWeight(addr string, zone dnswire.Name) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	h.Write([]byte{0}) // separator: ("ab","c.") must not collide with ("a","bc.")
	h.Write([]byte(zone.String()))
	return h.Sum64()
}

// Owner returns the member (self included) that owns zone's renewal
// duty: the non-dead member with the highest rendezvous weight.
// Suspect members still count — one lost probe must not reshuffle
// ownership — only dead ones drop out.
func (n *Node) Owner(zone dnswire.Name) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	best := n.cfg.Self
	bestW := rendezvousWeight(n.cfg.Self, zone)
	for _, p := range n.peers {
		if p.missed >= DefaultDeadAfter {
			continue
		}
		if w := rendezvousWeight(p.addr, zone); w > bestW {
			best, bestW = p.addr, w
		}
	}
	return best
}

// OwnsRenewal reports whether this node should spend a renewal credit
// on zone: whether it is the zone's Owner.
func (n *Node) OwnsRenewal(zone dnswire.Name) bool {
	return n.Owner(zone) == n.cfg.Self
}
