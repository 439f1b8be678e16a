package cache

import (
	"fmt"
	"sync"
	"testing"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
)

// TestConcurrentMixedOperations hammers the sharded cache from many
// goroutines with the full operation mix. Run with -race; correctness of
// each operation is covered by the single-threaded tests, this one is
// about memory safety and deadlock freedom across shards.
func TestConcurrentMixedOperations(t *testing.T) {
	c := New(Config{Clock: simclock.Real{}})
	const (
		workers = 16
		iters   = 300
		names   = 64 // spread across (and collide within) the shards
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("host%d.example.", (w*7+i)%names)
				switch i % 6 {
				case 0, 1:
					c.Put([]dnswire.RR{rrA(name, 300, "10.0.0.1")}, CredAnswer, i%2 == 0)
				case 2:
					if e := c.Get(dnswire.MustName(name), dnswire.TypeA); e != nil {
						// Entries are immutable: reading RRs without a
						// lock must be safe even while writers replace
						// the entry.
						_ = e.RRs[0].Name
						_ = e.Expires()
					}
				case 3:
					c.Extend(dnswire.MustName(name), dnswire.TypeA)
				case 4:
					if i%30 == 4 {
						c.Evict(dnswire.MustName(name), dnswire.TypeA)
					} else {
						c.Peek(dnswire.MustName(name), dnswire.TypeA)
					}
				case 5:
					switch i % 4 {
					case 0:
						c.Stats()
					case 1:
						c.Len()
					case 2:
						c.SweepExpired()
					case 3:
						// A reply stored beside Stats summing reply bytes.
						if e := c.Probe([]byte(name), dnswire.TypeA); e != nil {
							e.SetReply(byte(i), &Reply{Wire: make([]byte, i%7)})
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
