package resolve

import (
	"context"
	"errors"
	"reflect"
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
	ordered, skipped := u.order(nil, []transport.Addr{"unknown", "slow", "fast"}, now)
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
	ordered, _ := u.order(nil, []transport.Addr{"a", "b", "c"}, epoch)
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
	ordered, skipped := u.order(nil, []transport.Addr{"bad", "good"}, now)
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
	ordered, skipped := u.order(nil, []transport.Addr{"b", "a"}, now.Add(2*time.Second))
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
	u := newUpstream(UpstreamConfig{Quarantine: 5 * time.Second})
	now := epoch
	for i := 0; i < 10; i++ {
		u.observeFailure("bad", now)
	}
	if u.quarantined("bad", now.Add(defaultMaxQuarantine+time.Second)) {
		t.Error("quarantine exceeded defaultMaxQuarantine")
	}
	if !u.quarantined("bad", now.Add(defaultMaxQuarantine-time.Second)) {
		t.Error("quarantine shorter than defaultMaxQuarantine after many failures")
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
	if !workOf(ctx).takeAttempt() {
		t.Fatal("work-less context denied an attempt")
	}
	b := new(Work)
	newTestResolver(t, Config{Upstream: UpstreamConfig{RetryBudget: 2}}).Begin(b, ctx, KindRenewal)
	if workOf(b) != b || !workOf(b).takeAttempt() || !workOf(b).takeAttempt() {
		t.Fatal("budget denied attempts within its allowance")
	}
	if workOf(b).takeAttempt() {
		t.Fatal("budget allowed a third attempt out of 2")
	}

	// With no retry budget the count is unbounded, the glue cap is not,
	// and each kind of work ends its own time after Begin.
	r := newTestResolver(t, Config{})
	for kind, want := range map[Kind]time.Duration{KindResolve: 30 * time.Second, KindRenewal: 30 * time.Second, KindPrefetch: 10 * time.Second} {
		w := new(Work)
		r.Begin(w, ctx, kind)
		if got := w.until.Sub(epoch); got != want {
			t.Errorf("%s work ends %v after Begin, want %v", kindNames[kind], got, want)
		}
		for i := 0; i < 100; i++ {
			if !w.takeAttempt() {
				t.Fatalf("a zero budget denied attempt %d", i+1)
			}
		}
		glue := 0
		for w.takeGlue() {
			glue++
		}
		if glue != maxGlueFetches {
			t.Errorf("%s work drew %d glue fetches, want %d", kindNames[kind], glue, maxGlueFetches)
		}
	}

	// A budget that ends in time: halted at its end, and every attempt
	// timeout cut to what is left of it.
	until := epoch.Add(30 * time.Second)
	timed := new(Work)
	r.Begin(timed, ctx, KindResolve)
	if err := halted(timed, until.Add(-time.Nanosecond)); err != nil {
		t.Errorf("halted just before the end: %v", err)
	}
	if err := halted(timed, until); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("halted at the end = %v, want context.DeadlineExceeded", err)
	}
	bt := workOf(timed)
	if got := bt.clip(until.Add(-time.Second), 3*time.Second); got != time.Second {
		t.Errorf("a 3s attempt 1s before the end is given %v, want 1s", got)
	}
	if got := bt.clip(epoch, 3*time.Second); got != 3*time.Second {
		t.Errorf("a 3s attempt 30s before the end is given %v, want 3s", got)
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
					if ordered, _ := u.order(nil, servers, now); len(ordered) != len(servers) {
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

// rto is SRTT + 4·RTTVAR, the sum attemptTimeout clamps.
func rto(s *ServerState) time.Duration { return s.SRTT + 4*s.RTTVar }

func TestServerStateObserveFirstSample(t *testing.T) {
	var s ServerState
	if rto(&s) != 0 {
		t.Errorf("zero-value RTO = %v, want 0", rto(&s))
	}
	s.observe(100 * time.Millisecond)
	// RFC 6298: SRTT=R, RTTVAR=R/2, RTO=SRTT+4·RTTVAR=3R.
	if s.SRTT != 100*time.Millisecond {
		t.Errorf("SRTT = %v, want 100ms", s.SRTT)
	}
	if s.RTTVar != 50*time.Millisecond {
		t.Errorf("RTTVAR = %v, want 50ms", s.RTTVar)
	}
	if rto(&s) != 300*time.Millisecond {
		t.Errorf("RTO = %v, want 300ms", rto(&s))
	}
}

func TestServerStateObserveSmoothing(t *testing.T) {
	var s ServerState
	s.observe(100 * time.Millisecond)
	s.observe(200 * time.Millisecond)
	// RTTVAR = 3/4·50ms + 1/4·|100−200|ms = 62.5ms
	// SRTT   = 7/8·100ms + 1/8·200ms = 112.5ms
	if got := s.RTTVar; got != 62500*time.Microsecond {
		t.Errorf("RTTVAR = %v, want 62.5ms", got)
	}
	if got := s.SRTT; got != 112500*time.Microsecond {
		t.Errorf("SRTT = %v, want 112.5ms", got)
	}
	if s.Samples != 2 {
		t.Errorf("Samples = %d, want 2", s.Samples)
	}
}

func TestServerStateObserveConverges(t *testing.T) {
	var s ServerState
	for i := 0; i < 100; i++ {
		s.observe(40 * time.Millisecond)
	}
	if got := s.SRTT; got < 39*time.Millisecond || got > 41*time.Millisecond {
		t.Errorf("SRTT = %v after steady samples, want ≈40ms", got)
	}
	// Variance decays toward zero on a steady signal.
	if s.RTTVar > 5*time.Millisecond {
		t.Errorf("RTTVAR = %v, want near zero", s.RTTVar)
	}
}

func TestServerStateObserveNegativeClamped(t *testing.T) {
	var s ServerState
	s.observe(-time.Second)
	if s.SRTT != 0 || rto(&s) != 0 {
		t.Errorf("negative sample produced SRTT=%v RTO=%v", s.SRTT, rto(&s))
	}
}

// TestServerStateExportRestoreRoundTrip: what export writes, restore reads
// back unchanged; and a hostile checkpoint is repaired on the way in.
func TestServerStateExportRestoreRoundTrip(t *testing.T) {
	u := newUpstream(UpstreamConfig{})
	u.observeSuccess("10.0.0.1:53", 20*time.Millisecond)
	u.observeSuccess("10.0.0.1:53", 30*time.Millisecond)
	u.observeFailure("10.0.0.2:53", epoch)
	u.observeFailure("10.0.0.3:53", epoch)
	u.observeSuccess("10.0.0.3:53", time.Millisecond)
	states := u.export()

	u2 := newUpstream(UpstreamConfig{})
	u2.restore(states)
	if again := u2.export(); !reflect.DeepEqual(again, states) {
		t.Errorf("export → restore → export\n got %+v\nwant %+v", again, states)
	}

	until := epoch.Add(time.Hour)
	h := newUpstream(UpstreamConfig{})
	h.restore([]ServerState{
		{Addr: "", SRTT: time.Second, Samples: 3},
		{Addr: "neg", SRTT: -time.Second, RTTVar: -time.Millisecond, Samples: 4, Fails: -5, QuarantineUntil: until},
		{Addr: "nohist", SRTT: 10 * time.Millisecond, RTTVar: 5 * time.Millisecond, Samples: 0, Fails: 2},
	})
	want := []ServerState{
		{Addr: "neg", Samples: 4, QuarantineUntil: until},
		{Addr: "nohist", Fails: 2},
	}
	if got := h.export(); !reflect.DeepEqual(got, want) {
		t.Errorf("repaired checkpoint\n got %+v\nwant %+v", got, want)
	}
	// No RTT history whatever the durations said: first-contact patience.
	if got := h.attemptTimeout("nohist"); got != defaultMaxTimeout {
		t.Errorf("attemptTimeout with Samples == 0 = %v, want %v", got, defaultMaxTimeout)
	}
}
