package resolve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// TestSweepExpiredReclaimsNegativeCache is the random-subdomain flood:
// 10 000 names that do not exist, each asked once. Lazy expiry never sees
// those keys again, so only the sweep can reclaim them — and it must
// leave a live entry alone.
func TestSweepExpiredReclaimsNegativeCache(t *testing.T) {
	clock := simclock.NewVirtual(epoch)
	nxdomain := transport.Exchanger(func(_ context.Context, _ transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		resp := q.Reply()
		resp.Flags.Authoritative = true
		resp.RCode = dnswire.RCodeNXDomain
		return resp, nil
	})
	r := newTestResolver(t, Config{Clock: clock, Transport: nxdomain, NegativeTTL: time.Minute})
	ask := func(name string) {
		t.Helper()
		res, err := r.ResolveChain(context.Background(), nil, dnswire.MustName(name), dnswire.TypeA)
		if err != nil || res.RCode != dnswire.RCodeNXDomain {
			t.Fatalf("%s: %+v, %v; want NXDOMAIN", name, res, err)
		}
	}
	size := func() int {
		r.negMu.Lock()
		defer r.negMu.Unlock()
		return len(r.negative)
	}

	const flood = 10000
	for i := 0; i < flood; i++ {
		ask(fmt.Sprintf("r%d.victim.test.", i))
	}
	if size() != flood {
		t.Fatalf("negative cache holds %d entries after %d unique NXDOMAINs", size(), flood)
	}

	clock.Advance(time.Minute + time.Second)
	ask("fresh.victim.test.")
	if size() != flood+1 {
		t.Fatalf("lazy expiry reclaimed never-repeated keys: %d entries, want %d", size(), flood+1)
	}
	r.SweepExpired()
	if size() != 1 {
		t.Errorf("after the sweep the negative cache holds %d entries, want only the live one", size())
	}
	if _, _, ok := r.negativeLookup(dnswire.MustName("fresh.victim.test."), dnswire.TypeA, clock.Now()); !ok {
		t.Error("the sweep dropped a live negative entry")
	}
}

// TestSweepExpiredYieldsToQueries runs the sweep against concurrent
// stores and lookups: it releases negMu between batches, so under -race
// this is the check that the paused map range and the writers in its gaps
// stay properly synchronised, and that everything expired before the
// sweep began is gone after it.
func TestSweepExpiredYieldsToQueries(t *testing.T) {
	clock := simclock.NewVirtual(epoch)
	r := newTestResolver(t, Config{Clock: clock, NegativeTTL: time.Minute})
	const old = 8 * negSweepBatch
	for i := 0; i < old; i++ {
		r.negativeStore(dnswire.MustName(fmt.Sprintf("old%d.victim.test.", i)), dnswire.TypeA, dnswire.RCodeNXDomain, nil)
	}
	clock.Advance(time.Minute + time.Second)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				name := dnswire.MustName(fmt.Sprintf("new%d-%d.victim.test.", g, i))
				r.negativeStore(name, dnswire.TypeA, dnswire.RCodeNXDomain, nil)
				if _, _, ok := r.negativeLookup(name, dnswire.TypeA, clock.Now()); !ok {
					t.Errorf("%s: live entry lost while the sweep ran", name)
					return
				}
			}
		}()
	}
	r.SweepExpired()
	wg.Wait()

	r.negMu.Lock()
	defer r.negMu.Unlock()
	if got, want := len(r.negative), 4*2000; got != want {
		t.Errorf("negative cache holds %d entries, want the %d live ones and none of the %d expired", got, want, old)
	}
}
