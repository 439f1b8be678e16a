package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientdns/internal/authserver"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

// These tests exercise the decomposed locking under the race detector.
// They use the Pipe transport (concurrency-safe, unlike simnet) and the
// real clock.

// newPipeHierarchy builds root → example. over Pipe: the root (10.0.0.1)
// delegates example. to ns1.example. (10.0.5.1), which serves
// www.example. plus hostN.example. for 0 ≤ N < hosts. irrTTL is the
// example. IRR TTL in seconds.
func newPipeHierarchy(t testing.TB, cfg Config, irrTTL uint32, hosts int) *CachingServer {
	t.Helper()
	root := zone.New(dnswire.Root)
	root.MustAdd(rrNS(".", 3600000, "a.root-servers.net."))
	root.MustAdd(rrA("a.root-servers.net.", 3600000, "10.0.0.1"))
	root.MustAdd(rrNS("example.", irrTTL, "ns1.example."))
	root.MustAdd(rrA("ns1.example.", irrTTL, "10.0.5.1"))

	ex := zone.New(dnswire.MustName("example."))
	ex.MustAdd(rrNS("example.", irrTTL, "ns1.example."))
	ex.MustAdd(rrA("ns1.example.", irrTTL, "10.0.5.1"))
	ex.MustAdd(rrA("www.example.", 300, "10.9.9.9"))
	for i := 0; i < hosts; i++ {
		ex.MustAdd(rrA(fmt.Sprintf("host%d.example.", i), 300, "10.9.8.7"))
	}

	if cfg.Transport == nil {
		cfg.Transport = &transport.Pipe{Handlers: map[transport.Addr]transport.Handler{
			"10.0.0.1": authserver.New(root),
			"10.0.5.1": authserver.New(ex),
		}}
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	cfg.RootHints = []ServerRef{{Host: dnswire.MustName("a.root-servers.net."), Addr: "10.0.0.1"}}
	cs, err := NewCachingServer(cfg)
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}
	return cs
}

// flatRootPipe returns a Pipe whose single root server answers
// www.example. authoritatively, so a cold resolution costs exactly one
// upstream exchange.
func flatRootPipe() *transport.Pipe {
	root := zone.New(dnswire.Root)
	root.MustAdd(rrNS(".", 3600000, "a.root-servers.net."))
	root.MustAdd(rrA("a.root-servers.net.", 3600000, "10.0.0.1"))
	root.MustAdd(rrA("www.example.", 300, "10.9.9.9"))
	return &transport.Pipe{Handlers: map[transport.Addr]transport.Handler{
		"10.0.0.1": authserver.New(root),
	}}
}

// gatedTransport counts exchanges and blocks each one until gate closes.
type gatedTransport struct {
	inner transport.Transport
	gate  chan struct{}
	calls atomic.Int64
}

func (g *gatedTransport) Exchange(ctx context.Context, server transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	g.calls.Add(1)
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.Exchange(ctx, server, q)
}

// TestConcurrentResolveStorm hammers one server from many goroutines with
// a mix of names: shared cache shards, the flight table, and the stats
// all under contention. Run with -race.
func TestConcurrentResolveStorm(t *testing.T) {
	const (
		workers = 16
		iters   = 50
		hosts   = 8
	)
	cs := newPipeHierarchy(t, Config{}, 3600, hosts)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := dnswire.MustName(fmt.Sprintf("host%d.example.", (w+i)%hosts))
				if i%3 == 0 {
					name = dnswire.MustName("www.example.")
				}
				res, err := cs.Resolve(context.Background(), name, dnswire.TypeA)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if res.RCode != dnswire.RCodeNoError || len(res.Answer) == 0 {
					errs <- fmt.Errorf("worker %d: bad result %+v", w, res)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := cs.Stats(); st.QueriesIn != workers*iters {
		t.Errorf("QueriesIn = %d, want %d", st.QueriesIn, workers*iters)
	}
}

// TestSingleflightCoalesces verifies that N concurrent identical queries
// cost exactly one upstream exchange.
func TestSingleflightCoalesces(t *testing.T) {
	const clients = 16
	gt := &gatedTransport{inner: flatRootPipe(), gate: make(chan struct{})}
	cs := newPipeHierarchy(t, Config{Transport: gt}, 3600, 0)

	name := dnswire.MustName("www.example.")
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cs.Resolve(context.Background(), name, dnswire.TypeA)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Answer) != 1 || res.Answer[0].Data.String() != "10.9.9.9" {
				errs <- fmt.Errorf("bad answer %+v", res)
			}
		}()
	}

	// Every client but the flight starter counts as coalesced the moment
	// it joins, so this is the signal that all of them are parked on the
	// same flight.
	deadline := time.Now().Add(5 * time.Second)
	for cs.Stats().Coalesced < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients coalesced", cs.Stats().Coalesced, clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gt.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := gt.calls.Load(); got != 1 {
		t.Errorf("upstream exchanges = %d, want exactly 1", got)
	}
	if st := cs.Stats(); st.Coalesced != clients-1 {
		t.Errorf("Coalesced = %d, want %d", st.Coalesced, clients-1)
	}
}

// TestCancelledLeaderHandsOff verifies the singleflight handoff: the
// caller that started a flight cancelling its own context must not fail
// the other callers waiting on the same flight.
func TestCancelledLeaderHandsOff(t *testing.T) {
	gt := &gatedTransport{inner: flatRootPipe(), gate: make(chan struct{})}
	cs := newPipeHierarchy(t, Config{Transport: gt}, 3600, 0)
	name := dnswire.MustName("www.example.")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := cs.Resolve(leaderCtx, name, dnswire.TypeA)
		leaderErr <- err
	}()

	// Wait for the leader's flight to reach the (blocked) transport.
	deadline := time.Now().Add(5 * time.Second)
	for gt.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the transport")
		}
		time.Sleep(time.Millisecond)
	}

	followerRes := make(chan *Result, 1)
	followerErrCh := make(chan error, 1)
	go func() {
		res, err := cs.Resolve(context.Background(), name, dnswire.TypeA)
		followerRes <- res
		followerErrCh <- err
	}()
	for cs.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}

	close(gt.gate)
	if err := <-followerErrCh; err != nil {
		t.Fatalf("follower failed after leader cancelled: %v", err)
	}
	res := <-followerRes
	if len(res.Answer) != 1 || res.Answer[0].Data.String() != "10.9.9.9" {
		t.Errorf("follower answer = %+v", res)
	}
}

// TestAbandonedFlightRestarts verifies that cancelling the only waiter
// retires the flight, so the next query starts a fresh flight instead of
// latching onto the cancelled one (which stops at its next attempt
// boundary).
func TestAbandonedFlightRestarts(t *testing.T) {
	gt := &gatedTransport{inner: flatRootPipe(), gate: make(chan struct{})}
	cs := newPipeHierarchy(t, Config{Transport: gt}, 3600, 0)
	name := dnswire.MustName("www.example.")

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := cs.Resolve(ctx, name, dnswire.TypeA)
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for gt.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight never reached the transport")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled resolve returned %v", err)
	}

	close(gt.gate)
	res, err := cs.Resolve(context.Background(), name, dnswire.TypeA)
	if err != nil {
		t.Fatalf("fresh resolve after abandonment: %v", err)
	}
	if len(res.Answer) != 1 {
		t.Errorf("fresh resolve answer = %+v", res)
	}
}

// TestAbandonedFlightRecordsNoFailure: the last waiter leaving a flight
// does not cancel the attempt under way. The attempt runs to its own
// deadline, so a server that answers after the client gave up is not
// blamed for it — a cancelled dial or connect comes back as
// ErrServerUnreachable, which quarantined a healthy server for 5 s,
// doubling — and its answer is cached for the next client.
func TestAbandonedFlightRecordsNoFailure(t *testing.T) {
	inner := flatRootPipe()
	release := make(chan struct{})
	var calls atomic.Int64
	tr := transport.Exchanger(func(ctx context.Context, server transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		calls.Add(1)
		select {
		case <-release:
			return inner.Exchange(ctx, server, q)
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %v", transport.ErrServerUnreachable, ctx.Err())
		}
	})
	cs := newPipeHierarchy(t, Config{Transport: tr}, 3600, 0)
	name := dnswire.MustName("www.example.")

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := cs.Resolve(ctx, name, dnswire.TypeA)
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight never reached the transport")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned resolve returned %v, want context.Canceled", err)
	}
	close(release)

	// The exchange's outcome reaches the server's state, then the cache.
	var st UpstreamServerState
	for st.Samples == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned exchange's outcome was never recorded")
		}
		time.Sleep(time.Millisecond)
		for _, s := range cs.Resolver().ExportServerStates() {
			if s.Addr == "10.0.0.1" {
				st = s
			}
		}
	}
	if st.Fails != 0 || !st.QuarantineUntil.IsZero() {
		t.Errorf("server state after the client left: Fails %d, quarantined until %v; want no failure", st.Fails, st.QuarantineUntil)
	}
	for cs.Cache().Peek(name, dnswire.TypeA) == nil {
		if time.Now().After(deadline) {
			t.Fatal("the answer the abandoned flight received was never cached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRenewalLoopConcurrentWithQueries runs the renewal scheduler
// alongside query traffic over short-TTL IRRs: the renewMu pop/refetch
// split and the credit accounting race with resolution. Run with -race.
func TestRenewalLoopConcurrentWithQueries(t *testing.T) {
	cs := newPipeHierarchy(t, Config{
		RefreshTTL: true,
		Renewal:    ALFU{C: 5, MaxDays: 50},
	}, 1, 4) // 1s IRR TTL: renewals come due immediately

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			cs.ProcessDueRenewals(ctx, time.Now())
		}
	}()

	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stop := time.Now().Add(300 * time.Millisecond)
			for i := 0; time.Now().Before(stop); i++ {
				name := dnswire.MustName(fmt.Sprintf("host%d.example.", (w+i)%4))
				if _, err := cs.Resolve(context.Background(), name, dnswire.TypeA); err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	// Stop the renewal goroutine once the query workers are finished.
	go func() {
		time.Sleep(400 * time.Millisecond)
		cancel()
	}()
	select {
	case <-done:
	case <-timer.C:
		t.Fatal("deadlock: workers did not finish")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRefetchRejectsMismatchedID ensures renewal refetches discard
// responses whose ID does not echo the query's. (Query-ID uniqueness
// itself is tested with the fetch engine in internal/resolve.)
func TestRefetchRejectsMismatchedID(t *testing.T) {
	inner := flatRootPipe()
	spoof := transport.HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		resp := inner.Handlers["10.0.0.1"].HandleQuery(q)
		resp.ID = q.ID + 1 // off-path spoofer guessing wrong
		return resp
	})
	cs := newPipeHierarchy(t, Config{
		Transport: &transport.Pipe{Handlers: map[transport.Addr]transport.Handler{"10.0.0.1": spoof}},
	}, 3600, 0)
	_, err := cs.Resolver().Refetch(context.Background(), nil, dnswire.Root, []transport.Addr{"10.0.0.1"})
	if err == nil {
		t.Fatal("refetch accepted a response with a mismatched ID")
	}
}
