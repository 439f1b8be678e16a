package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
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
// started. The ceilings are the measured cost (42.2 objects and 2 348
// bytes; 42.9 and ~2 445 under -race, where sync.Pool drops some timers)
// with room for the race detector's drops only. Per miss, in objects:
//
//	frontend   8  the reply and its question (2), its answer (1), the
//	              flight and its done channel (2), the closure handed to
//	              the warm goroutine (1), the flight's cancel context and
//	              its cancel func (2)
//	flight    17  the retry and glue budgets (2), ResolveChain's and
//	              iterate's results and the chain's answer (3), the server
//	              list and its mapped address (2), the ordered list (1),
//	              the query with its question and OPT record (1), the
//	              attempt's detached context, deadline and timer (4), the
//	              relevant answers (1), the cached entry and its records
//	              (2)
//	Pipe      15  authserver's reply, zone lookup and IRR attachment,
//	              which a UDP transport replaces with Unpack's ~9
//	runtime    2  map growth, amortised
//
// The frontend's wait timer comes from a pool; the budgets are their own
// context values; the query is one object, not three. The tree before
// this test paid 71.2 objects and 3 732 bytes here (the live server: 93
// and 6.7 KB per query, against 55 and 2.9 KB after): a 5 s context
// deadline for the frontend, a 30 s one for the flight, two value
// contexts, sort.SliceStable's reflection, the grouping map and every
// String() rrsetEqual compared.
func TestMissAllocs(t *testing.T) {
	const n = 1000
	cs := newPipeHierarchy(t, Config{}, 3600, 2*n+1)
	defer cs.Close()
	missCost(t, cs, missQueries(2*n, 1)) // warm the delegation

	missCost(t, cs, missQueries(0, n))
	started := cs.flights.Started()
	objects, bytes := missCost(t, cs, missQueries(n, n))
	t.Logf("per miss: %.1f objects, %.0f bytes", objects, bytes)
	if objects > missObjects || bytes > missBytes {
		t.Errorf("per miss: %.1f objects and %.0f bytes, want at most %d and %d", objects, bytes, missObjects, missBytes)
	}
	if more := cs.flights.Started() - started; more > 0 {
		t.Errorf("%d sequential misses started %d flight goroutines, want 0: the warm one takes every flight", n, more)
	}
}

// missObjects and missBytes are TestMissAllocs' ceilings.
const (
	missObjects = 44
	missBytes   = 2560
)

// TestFlightCeiling: a flight's 30 s ceiling is its retry budget's end in
// time. On a clock each failing attempt moves 7 s, attempts start at 0,
// 7, 14, 21 and 28 s, the last one's deadline is cut to the 2 s left,
// and none starts at 35 s.
func TestFlightCeiling(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	ceiling := epoch.Add(flightTimeout)
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
			t.Errorf("an attempt started at %v, at or past the %v ceiling", s.Sub(epoch), flightTimeout)
		}
	}
}
