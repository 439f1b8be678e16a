package core

import (
	"sync/atomic"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
)

// countingClock is the wall clock, counting its readings.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) Now() time.Time {
	c.reads.Add(1)
	return simclock.Real{}.Now()
}

// TestClockReads: the serving path reads its clock once per step. An
// inline hit, before and after its reply is kept on its entry, reads it
// once; a miss through HandleQuery over a Pipe reads it once as the query
// arrives, once as its flight begins and once after each upstream
// exchange, whatever number of cache operations lie between.
func TestClockReads(t *testing.T) {
	clk := new(countingClock)
	cs := newPipeHierarchy(t, Config{Clock: clk}, 3600, 2)
	defer cs.Close()
	reads := func(f func()) int64 {
		before := clk.reads.Load()
		f()
		return clk.reads.Load() - before
	}

	for _, name := range []string{"host0.example.", "host1.example."} { // cold, then under a warm delegation
		q := dnswire.NewQuery(1, dnswire.MustName(name), dnswire.TypeA)
		q.Flags.RecursionDesired = true
		sent, _ := cs.Resolver().UpstreamQueries()
		n := reads(func() {
			if resp := cs.HandleQuery(q); resp == nil || len(resp.Answer) != 1 {
				t.Fatalf("%s: answer %v", name, resp)
			}
		})
		after, _ := cs.Resolver().UpstreamQueries()
		exchanges := int64(after - sent)
		t.Logf("miss for %s: %d clock reads, %d exchanges", name, n, exchanges)
		if want := 1 + exchanges + 1; n > want {
			t.Errorf("miss for %s: %d clock reads over %d exchanges, want at most %d", name, n, exchanges, want)
		}
	}

	hit := dnswire.NewQuery(2, dnswire.MustName("host0.example."), dnswire.TypeA)
	hit.Flags.RecursionDesired = true
	for _, kind := range []string{"inline hit", "inline hit from its kept reply"} {
		var inline bool
		if n := reads(func() { _, inline = viaInline(t, cs, hit) }); n != 1 || !inline {
			t.Errorf("%s: %d clock reads (settled inline: %v), want 1", kind, n, inline)
		}
	}
}
