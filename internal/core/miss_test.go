package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/race"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// missQueries returns n queries for hostN.example. names, each asked
// once: under newPipeHierarchy's warm delegation, every one is a miss that
// costs one upstream exchange.
func missQueries(from, n int) []*dnswire.Message {
	qs := make([]*dnswire.Message, n)
	for i := range qs {
		qs[i] = dnswire.NewQuery(uint16(i), dnswire.MustName(fmt.Sprintf("host%d.example.", from+i)), dnswire.TypeA)
		qs[i].Flags.RecursionDesired = true
	}
	return qs
}

// missCost sends qs through HandleQuery one after another and returns the
// heap objects and bytes allocated per query, on every goroutine.
func missCost(t *testing.T, cs *CachingServer, qs []*dnswire.Message) (objects, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range qs {
		if resp := cs.HandleQuery(q); resp == nil || resp.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 {
			t.Fatalf("%s: answer %v", q.Question[0].Name, resp)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(qs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestMissAllocs bounds what a cache miss allocates end to end through
// HandleQuery, with its one upstream exchange over a Pipe, and holds the
// flight goroutines warm: over a second run of misses, no goroutine is
// started. The ceilings are the measured cost (25.1 objects and 1 437
// bytes) with a little room; under -race, where sync.Pool drops items
// at random, the body runs and the count is not asserted. Per miss, in
// objects:
//
//	frontend   4  the reply with its question (1), its answer (1), the
//	              flight, which is also the task its warm goroutine
//	              runs, and its done channel (2)
//	flight     5  ResolveChain's and iterate's results (2), the relevant
//	              answers, which are also the chain's answer (1), the
//	              cached entry and its records (2)
//	Pipe      14  authserver's reply, zone lookup and IRR attachment,
//	              which a UDP transport replaces with what its reply's
//	              decoding allocates (TestUDPExchangeAllocs)
//	runtime    2  map growth, amortised
//
// The frontend's wait timer and the fetch's query, with the context its
// attempts run under and the order it tries the servers in, come from
// pools; a reply of one question is one object with it; the flight is
// its own context, so its cancellation is a flag and its retry and glue
// budgets are one Work inside it (context.WithCancel's context and cancel
// func, the two budget contexts and the closure that started the flight
// were 5 more objects and ~180 bytes, the query object, the ordered list
// and the replies' question slices 4 more and ~270 bytes); an attempt
// arms no timer (context.WithoutCancel and WithTimeout's two contexts,
// timer, timer callback and cancel func were 5 more objects and ~210
// bytes); the server list is an array on iterate's stack and each
// server's address string is made once, on its record in the upstream
// table, and the chain's answer is the step's records, not a copy of
// them (all three were made per miss: 3 more objects and ~170 bytes). A
// Pipe's reply is not pooled, so what a UDP reply saves — its Message
// and sections from their pool, its names reused — does not show here.
// The tree before this test paid 71.2 objects and 3 732 bytes here (the
// live server: 93 and 6.7 KB per query, against 55 and 2.9 KB after): a
// 5 s context deadline for the frontend, a 30 s one for the flight, two
// value contexts, sort.SliceStable's reflection, the grouping map and
// every String() rrsetEqual compared.
func TestMissAllocs(t *testing.T) {
	const n = 1000
	cs := newPipeHierarchy(t, Config{}, 3600, 2*n+1)
	defer cs.Close()
	missCost(t, cs, missQueries(2*n, 1)) // warm the delegation

	missCost(t, cs, missQueries(0, n))
	started := cs.flights.Started()
	objects, bytes := missCost(t, cs, missQueries(n, n))
	t.Logf("per miss: %.1f objects, %.0f bytes", objects, bytes)
	if (objects > missObjects || bytes > missBytes) && !race.Enabled {
		t.Errorf("per miss: %.1f objects and %.0f bytes, want at most %d and %d", objects, bytes, missObjects, missBytes)
	}
	if more := cs.flights.Started() - started; more > 0 {
		t.Errorf("%d sequential misses started %d flight goroutines, want 0: the warm one takes every flight", n, more)
	}
}

// missObjects and missBytes are TestMissAllocs' ceilings.
const (
	missObjects = 27
	missBytes   = 1510
)

// TestFlightCeiling: a flight's 30 s ceiling is its retry budget's end in
// time. On a clock each failing attempt moves 7 s, attempts start at 0,
// 7, 14, 21 and 28 s, the last one's deadline is cut to the 2 s left,
// and none starts at 35 s.
func TestFlightCeiling(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	ceiling := epoch.Add(30 * time.Second)
	var mu sync.Mutex
	var starts []time.Time
	tr := transport.Exchanger(func(ctx context.Context, _ transport.Addr, _ *dnswire.Message) (*dnswire.Message, error) {
		start := clk.Now()
		d, ok := ctx.Deadline()
		if !ok {
			t.Error("an attempt without a deadline")
		}
		if end := start.Add(time.Until(d)); end.After(ceiling) {
			t.Errorf("the attempt at %v runs to %v, past the ceiling", start.Sub(epoch), end.Sub(epoch))
		}
		mu.Lock()
		starts = append(starts, start)
		mu.Unlock()
		clk.Advance(7 * time.Second)
		return nil, transport.ErrTimeout
	})
	var hints []ServerRef
	for i := 1; i <= 13; i++ {
		hints = append(hints, ServerRef{Host: dnswire.MustName(fmt.Sprintf("%c.root-servers.net.", 'a'+i-1)), Addr: transport.Addr(fmt.Sprintf("10.0.0.%d", i))})
	}
	cs, err := NewCachingServer(Config{Transport: tr, Clock: clk, RootHints: hints})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Resolve(context.Background(), dnswire.MustName("www.example."), dnswire.TypeA); err == nil {
		t.Fatal("resolved with every server failing")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(starts) != 5 {
		t.Errorf("%d attempts, want 5 (at 0, 7, 14, 21 and 28 s)", len(starts))
	}
	for _, s := range starts {
		if !s.Before(ceiling) {
			t.Errorf("an attempt started at %v, at or past the 30 s ceiling", s.Sub(epoch))
		}
	}
}
