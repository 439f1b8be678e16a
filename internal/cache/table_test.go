package cache

import (
	"fmt"
	"hash/maphash"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
)

// tableKeys are the keys FuzzShardTable draws from: 128 names under two
// types, enough to grow a table to 512 slots and wrap probe chains round
// its end, few enough that the fuzzer revisits them.
var tableKeys = func() []Key {
	keys := make([]Key, 256)
	for i := range keys {
		keys[i] = Key{Name: dnswire.MustName(fmt.Sprintf("k%d.table.test.", i/2)), Type: dnswire.TypeA}
		if i%2 == 1 {
			keys[i].Type = dnswire.TypeNS
		}
	}
	return keys
}()

// tableSeed is FuzzShardTable's one seed per process: with a seed per
// input, the same input would not take the same probes twice, and the
// fuzzer could not minimize what it finds.
var tableSeed = maphash.MakeSeed()

// tableEntry is a fresh entry for key; expires tells the fuzzer's sweeps
// apart.
func tableEntry(key Key, expires int64) *Entry {
	rr := dnswire.RR{Name: key.Name, Class: dnswire.ClassIN, TTL: 60, Data: dnswire.A{}}
	if key.Type == dnswire.TypeNS {
		rr.Data = dnswire.NS{Host: key.Name}
	}
	return &Entry{RRs: []dnswire.RR{rr}, expires: expires}
}

// checkTable holds tb to ref after a step on key: the count, every slot's
// tag and the load, a find of key and of every entry ref holds, and a
// visit that sees every entry of ref and nothing else.
func checkTable(t *testing.T, step int, tb *table, ref map[Key]*Entry, key Key) {
	t.Helper()
	if tb.n != len(ref) {
		t.Fatalf("step %d: n = %d, reference holds %d", step, tb.n, len(ref))
	}
	if 4*tb.n > 3*len(tb.slots) || len(tb.slots) < minSlots || len(tb.slots)&(len(tb.slots)-1) != 0 {
		t.Fatalf("step %d: %d entries in %d slots", step, tb.n, len(tb.slots))
	}
	for i, e := range tb.slots {
		if (e == nil) != (tb.tags[i] == 0) || e != nil && tb.tags[i] != tagOf(tb.hash(e)) {
			t.Fatalf("step %d: slot %d holds %v under tag %d", step, i, e, tb.tags[i])
		}
	}
	find := func(key Key) {
		if _, e := tb.find(hashKey(tb.seed, key.Name, key.Type), key.Name, key.Type); e != ref[key] {
			t.Fatalf("step %d: find(%v) = %p, reference holds %p", step, key, e, ref[key])
		}
	}
	find(key)
	for key := range ref {
		find(key)
	}
	seen := 0
	tb.visit(func(_ int, e *Entry) bool {
		if ref[e.Key()] != e {
			t.Fatalf("step %d: visit sees %v, which the reference does not hold", step, e.Key())
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("step %d: visit sees %d entries, reference holds %d", step, seen, len(ref))
	}
}

// FuzzShardTable runs find/set/delete/sweep sequences on a shard's table
// against a map: each pair of input bytes is an operation and a key. A
// sweep deletes the entries whose expiry is at most the key byte and
// reissues the rest that a tombstoning pass would, as SweepExpired does,
// and must reach every entry; sweeps that empty the table shrink it.
func FuzzShardTable(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 1, 2, 2, 1, 3, 255})
	grow := make([]byte, 0, 2*len(tableKeys)+2)
	for i := range tableKeys {
		grow = append(grow, 1, byte(i))
	}
	f.Add(append(grow, 3, 200, 3, 255))
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := newTable(tableSeed)
		ref := make(map[Key]*Entry)
		for step := 0; step+1 < len(ops); step += 2 {
			op, arg := ops[step], ops[step+1]
			key := tableKeys[arg]
			h := hashKey(tb.seed, key.Name, key.Type)
			i, e := tb.find(h, key.Name, key.Type)
			switch op % 4 {
			case 1: // set: insert, or replace with a fresh copy
				ne := tableEntry(key, int64(op>>2))
				tb.set(i, h, ne)
				ref[key] = ne
			case 2: // delete
				if e != nil {
					tb.delete(i)
					delete(ref, key)
				}
			case 3: // sweep
				live := 0
				for _, e := range ref {
					if e.expires > int64(arg) {
						live++
					}
				}
				tb.visit(func(i int, e *Entry) bool {
					switch {
					case e.expires <= int64(arg):
						tb.delete(i)
						delete(ref, e.Key())
					case e.flags&flagTombstoned == 0 && e.expires%2 == 0:
						ne := e.reissue(e.expires)
						ne.flags |= flagTombstoned
						tb.set(i, 0, ne)
						ref[e.Key()] = ne
					}
					return true
				})
				tb.shrink()
				for key, e := range ref {
					if e.expires <= int64(arg) || e.flags&flagTombstoned == 0 && e.expires%2 == 0 {
						t.Fatalf("step %d: the sweep skipped %v", step/2, key)
					}
				}
				if len(ref) != live {
					t.Fatalf("step %d: %d entries outlive the sweep, want %d", step/2, len(ref), live)
				}
			}
			checkTable(t, step/2, &tb, ref, key)
		}
	})
}

// TestTableConcurrentGrowShrink runs Get and Probe readers beside PutOrigin
// writers and SweepExpired, across the tables' growth to thousands of
// entries and their shrinking back to empty. Every entry a reader gets
// must be the key it asked for. Run with -race.
func TestTableConcurrentGrowShrink(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	c := New(Config{Clock: clk})
	const names = 4096
	name := func(i int) dnswire.Name { return dnswire.MustName(fmt.Sprintf("n%d.grow.test.", i%names)) }

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				n := name(i)
				e := c.Get(n, dnswire.TypeA)
				if i%2 == 0 {
					e = c.Probe([]byte(n), dnswire.TypeA, clk.Now())
				}
				if e != nil && e.Key() != (Key{Name: n, Type: dnswire.TypeA}) {
					t.Errorf("lookup of %s returns %v", n, e.Key())
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := w; i < names; i += 2 {
				c.Put([]dnswire.RR{rrA(string(name(i)), 60, "192.0.2.1")}, CredAnswer, false)
				if i%512 == 0 {
					c.SweepExpired()
				}
			}
		}(w)
	}
	writers.Wait()
	if n := c.Len(); n != names {
		t.Errorf("Len = %d after the writers, want %d", n, names)
	}
	c.shards[0].mu.RLock()
	grown := len(c.shards[0].entries.slots)
	c.shards[0].mu.RUnlock()
	if grown <= minSlots {
		t.Errorf("shard 0 has %d slots after the writers: it never grew", grown)
	}
	clk.Advance(2 * time.Minute)
	c.SweepExpired()
	close(stop)
	readers.Wait()
	if n := c.Len(); n != 0 {
		t.Errorf("Len = %d after the sweep, want 0", n)
	}
	for i := range c.shards {
		if got := len(c.shards[i].entries.slots); got != minSlots {
			t.Errorf("shard %d keeps %d slots after the sweep (%d at the peak), want %d", i, got, grown, minSlots)
		}
	}
}
