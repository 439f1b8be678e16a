package resolve

import (
	"context"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/transport"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestUpstreamOrderPrefersFastServers(t *testing.T) {
	u := newUpstream(UpstreamConfig{})
	now := epoch
	u.observeSuccess("slow", 100*time.Millisecond)
	u.observeSuccess("fast", 5*time.Millisecond)
	// "unknown" has no history and must sort after measured servers.
	ordered, skipped := u.order([]transport.Addr{"unknown", "slow", "fast"}, now)
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0", skipped)
	}
	want := []transport.Addr{"fast", "slow", "unknown"}
	for i, addr := range want {
		if ordered[i] != addr {
			t.Fatalf("order = %v, want %v", ordered, want)
		}
	}
}

func TestUpstreamOrderTiesKeepInputOrder(t *testing.T) {
	// Determinism: servers with identical state must come out in input
	// order (the simulator depends on this).
	u := newUpstream(UpstreamConfig{})
	ordered, _ := u.order([]transport.Addr{"a", "b", "c"}, epoch)
	want := []transport.Addr{"a", "b", "c"}
	for i, addr := range want {
		if ordered[i] != addr {
			t.Fatalf("order = %v, want input order %v", ordered, want)
		}
	}
}

func TestUpstreamQuarantineSkipAndRecover(t *testing.T) {
	u := newUpstream(UpstreamConfig{Quarantine: 5 * time.Second})
	now := epoch
	u.observeFailure("bad", now)
	if !u.quarantined("bad", now) {
		t.Fatal("server not quarantined after failure")
	}
	ordered, skipped := u.order([]transport.Addr{"bad", "good"}, now)
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1", skipped)
	}
	if ordered[0] != "good" || ordered[1] != "bad" {
		t.Errorf("order = %v, want [good bad]", ordered)
	}
	// The quarantine lapses with time...
	later := now.Add(6 * time.Second)
	if u.quarantined("bad", later) {
		t.Error("server still quarantined after the window lapsed")
	}
	// ...and one success clears the failure streak entirely.
	u.observeFailure("bad", later) // second consecutive failure: 10s window
	if !u.quarantined("bad", later.Add(9*time.Second)) {
		t.Error("backoff did not double the quarantine window")
	}
	u.observeSuccess("bad", time.Millisecond)
	if u.quarantined("bad", later) {
		t.Error("success did not clear quarantine")
	}
}

func TestUpstreamAllQuarantinedFallsBack(t *testing.T) {
	u := newUpstream(UpstreamConfig{Quarantine: 5 * time.Second})
	now := epoch
	u.observeFailure("a", now)
	u.observeFailure("b", now.Add(time.Second))
	ordered, skipped := u.order([]transport.Addr{"b", "a"}, now.Add(2*time.Second))
	if skipped != 0 {
		t.Errorf("skipped = %d, want 0 when no healthy server exists", skipped)
	}
	if len(ordered) != 2 {
		t.Fatalf("ordered = %v, want both servers still tried", ordered)
	}
	// Earliest release first: a's window ends before b's.
	if ordered[0] != "a" || ordered[1] != "b" {
		t.Errorf("order = %v, want [a b] (by release time)", ordered)
	}
}

func TestUpstreamBackoffCapped(t *testing.T) {
	u := newUpstream(UpstreamConfig{Quarantine: 5 * time.Second, MaxQuarantine: 20 * time.Second})
	now := epoch
	for i := 0; i < 10; i++ {
		u.observeFailure("bad", now)
	}
	if u.quarantined("bad", now.Add(21*time.Second)) {
		t.Error("quarantine exceeded MaxQuarantine")
	}
	if !u.quarantined("bad", now.Add(19*time.Second)) {
		t.Error("quarantine shorter than MaxQuarantine after many failures")
	}
}

func TestAttemptTimeoutFromSRTT(t *testing.T) {
	u := newUpstream(UpstreamConfig{MinTimeout: 200 * time.Millisecond, MaxTimeout: 3 * time.Second})
	// No history: first contact gets the full MaxTimeout.
	if got := u.attemptTimeout("new"); got != 3*time.Second {
		t.Errorf("first-contact timeout = %v, want 3s", got)
	}
	// One 100ms sample: SRTT=100ms, RTTVAR=50ms, RTO=SRTT+4·RTTVAR=300ms.
	u.observeSuccess("mid", 100*time.Millisecond)
	if got := u.attemptTimeout("mid"); got != 300*time.Millisecond {
		t.Errorf("timeout = %v, want 300ms (SRTT+4·RTTVAR)", got)
	}
	// Tiny RTT clamps up to MinTimeout, huge RTT clamps down to MaxTimeout.
	u.observeSuccess("fast", time.Millisecond)
	if got := u.attemptTimeout("fast"); got != 200*time.Millisecond {
		t.Errorf("timeout = %v, want MinTimeout clamp", got)
	}
	u.observeSuccess("slow", 10*time.Second)
	if got := u.attemptTimeout("slow"); got != 3*time.Second {
		t.Errorf("timeout = %v, want MaxTimeout clamp", got)
	}
	// attemptTimeout never returns 0: the zero config still bounds every
	// attempt, at the default MaxTimeout.
	if got := newUpstream(UpstreamConfig{}).attemptTimeout("x"); got != defaultMaxTimeout {
		t.Errorf("zero-config timeout = %v, want %v", got, defaultMaxTimeout)
	}
}

func TestRetryBudgetContext(t *testing.T) {
	ctx := context.Background()
	if !takeAttempt(ctx) {
		t.Fatal("budget-less context denied an attempt")
	}
	b := WithRetryBudget(ctx, 2)
	if !takeAttempt(b) || !takeAttempt(b) {
		t.Fatal("budget denied attempts within its allowance")
	}
	if takeAttempt(b) {
		t.Fatal("budget allowed a third attempt out of 2")
	}
	if WithRetryBudget(ctx, 0) != ctx {
		t.Error("zero budget should leave the context unbounded")
	}
}

func TestUpstreamStatesRoundTrip(t *testing.T) {
	u := newUpstream(UpstreamConfig{})
	now := epoch
	u.observeSuccess("10.0.0.1:53", 20*time.Millisecond)
	u.observeSuccess("10.0.0.1:53", 30*time.Millisecond)
	u.observeFailure("10.0.0.2:53", now)
	u.observeFailure("10.0.0.2:53", now)

	states := u.export()
	if len(states) != 2 {
		t.Fatalf("exported %d states, want 2", len(states))
	}
	if states[0].Addr != "10.0.0.1:53" || states[1].Addr != "10.0.0.2:53" {
		t.Fatalf("export not sorted by address: %+v", states)
	}

	u2 := newUpstream(UpstreamConfig{})
	u2.restore(states)
	again := u2.export()
	if len(again) != len(states) {
		t.Fatalf("restored %d states, want %d", len(again), len(states))
	}
	for i := range states {
		if again[i] != states[i] {
			t.Errorf("state[%d] = %+v, want %+v", i, again[i], states[i])
		}
	}
	// Behavioural check: the restored failure state still quarantines.
	if !u2.quarantined("10.0.0.2:53", now) {
		t.Error("restored server lost its quarantine")
	}
}

func TestRestoreUpstreamStatesSkipsInvalid(t *testing.T) {
	u := newUpstream(UpstreamConfig{})
	u.restore([]ServerState{
		{Addr: "", Samples: 3},
		{Addr: "10.0.0.9:53", Fails: -5},
	})
	states := u.export()
	if len(states) != 1 {
		t.Fatalf("restored %d states, want 1", len(states))
	}
	if states[0].Fails != 0 {
		t.Errorf("negative fails not clamped: %+v", states[0])
	}
}

// TestUpstreamConcurrentAccess hammers the selection state from many
// goroutines so the -race pass covers concurrent observe/order/timeout
// updates (queries, renewals, and prefetches share one upstream).
func TestUpstreamConcurrentAccess(t *testing.T) {
	u := newUpstream(UpstreamConfig{})
	servers := []transport.Addr{"10.0.0.1:53", "10.0.0.2:53", "10.0.0.3:53"}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				addr := servers[(g+i)%len(servers)]
				now := epoch.Add(time.Duration(i) * time.Millisecond)
				switch i % 4 {
				case 0:
					u.observeSuccess(addr, time.Duration(10+i%40)*time.Millisecond)
				case 1:
					u.observeFailure(addr, now)
				case 2:
					if ordered, _ := u.order(servers, now); len(ordered) != len(servers) {
						t.Errorf("order returned %d servers, want %d", len(ordered), len(servers))
					}
				case 3:
					u.attemptTimeout(addr)
					u.quarantined(addr, now)
				}
			}
		}(g)
	}
	wg.Wait()
}
