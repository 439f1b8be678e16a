package cache

import (
	"hash/maphash"

	"resilientdns/internal/dnswire"
)

// hashKey is the seeded hash of the key (name, t). Its low shardBits pick
// the shard, the bits above them the home slot in the shard's table, and
// its top byte is the slot's tag. The seed is per Cache, so names an
// attacker picks can neither be aimed at one shard's lock nor build a long
// probe chain.
func hashKey(seed maphash.Seed, name dnswire.Name, t dnswire.Type) uint64 {
	return maphash.String(seed, string(name)) + uint64(t)*0x9e3779b97f4a7c15
}

// tagOf is the tag byte a slot keeps for the key hashed to h; never 0, the
// empty slot's tag.
func tagOf(h uint64) uint8 { return max(uint8(h>>56), 1) }

// minSlots is the smallest table: a shard's table never shrinks below it.
const minSlots = 8

// table is a shard's entries: an open-addressed, power-of-two array of
// entry pointers keyed by each entry's own Key, with one tag byte per slot
// so a probe dereferences only candidate entries. A slot costs a pointer
// and a byte: the key is the entry's own, not a copy. Probing is
// linear; the table doubles when an insert fills it past 3/4 and halves
// when a sweep leaves it under 1/8 full (a Go map never shrinks); a delete
// shifts the entries after it back, so there are no deleted markers. The
// shard lock guards it.
type table struct {
	seed  maphash.Seed
	slots []*Entry
	tags  []uint8
	n     int
}

// newTable returns an empty table of minSlots slots hashing under seed.
func newTable(seed maphash.Seed) table {
	return table{seed: seed, slots: make([]*Entry, minSlots), tags: make([]uint8, minSlots)}
}

// home is the slot the probe for a key hashed to h starts at.
func (t *table) home(h uint64) int { return int(h>>shardBits) & (len(t.slots) - 1) }

// hash is the hash of e's key.
func (t *table) hash(e *Entry) uint64 { return hashKey(t.seed, e.RRs[0].Name, e.RRs[0].Type()) }

// find returns the slot of the entry keyed (name, typ), whose hash is h,
// and that entry; or, when there is none, the empty slot where set would
// insert it, and nil.
func (t *table) find(h uint64, name dnswire.Name, typ dnswire.Type) (int, *Entry) {
	mask, tag := len(t.slots)-1, tagOf(h)
	i := t.home(h)
	for ; t.slots[i] != nil; i = (i + 1) & mask {
		if t.tags[i] != tag {
			continue
		}
		if e := t.slots[i]; e.RRs[0].Name == name && e.RRs[0].Type() == typ {
			return i, e
		}
	}
	return i, nil
}

// set stores e in slot i, as find returned it for e's key: it replaces the
// slot's entry, or inserts e with the tag of h, its key's hash (read only
// when the slot is empty), doubling the table when that leaves it over 3/4
// full. A nil e deletes the slot's entry.
func (t *table) set(i int, h uint64, e *Entry) {
	switch {
	case e == nil:
		t.delete(i)
	case t.slots[i] != nil:
		t.slots[i] = e
	default:
		t.slots[i], t.tags[i] = e, tagOf(h)
		if t.n++; 4*t.n > 3*len(t.slots) {
			t.resize(2 * len(t.slots))
		}
	}
}

// delete empties the occupied slot i, moving back each entry after it
// whose probe from its home slot passes the hole.
func (t *table) delete(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		if (j-t.home(t.hash(t.slots[j])))&mask >= (j-i)&mask {
			t.slots[i], t.tags[i] = t.slots[j], t.tags[j]
			i = j
		}
	}
	t.slots[i], t.tags[i] = nil, 0
	t.n--
}

// visit calls fn with every entry and its slot until fn returns false, and
// reports whether it got through. fn may set or delete slot i: a delete
// shifts an unvisited entry into the slot, so visit looks at it again; an
// entry a delete pulls back round the end of the array may be visited a
// second time.
func (t *table) visit(fn func(i int, e *Entry) bool) bool {
	for i := 0; i < len(t.slots); i++ {
		for e := t.slots[i]; e != nil; e = t.slots[i] {
			n := t.n
			if !fn(i, e) {
				return false
			}
			if t.n == n {
				break
			}
		}
	}
	return true
}

// shrink halves the table while it is under 1/8 full, as a sweep leaves
// it: a flood's names, once swept, stop holding slots.
func (t *table) shrink() {
	size := len(t.slots)
	for size > minSlots && 8*t.n < size {
		size /= 2
	}
	if size < len(t.slots) {
		t.resize(size)
	}
}

// resize rehashes the entries into a table of size slots.
func (t *table) resize(size int) {
	slots := t.slots
	t.slots, t.tags = make([]*Entry, size), make([]uint8, size)
	for _, e := range slots {
		if e != nil {
			h := t.hash(e)
			i := t.home(h)
			for t.slots[i] != nil {
				i = (i + 1) & (size - 1)
			}
			t.slots[i], t.tags[i] = e, tagOf(h)
		}
	}
}
