package resolve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// TestNilTraceIsInert: every Trace method must be a no-op on nil — this
// is the property that lets the pipeline thread traces unconditionally
// and the simulator run with tracing fully off.
func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	sp := tr.StartStage(StageIterate)
	sp.End()
	tr.MarkCoalesced()
	tr.MarkCacheHit()
	tr.MarkStale()
	tr.MarkCacheOnly()
	tr.MarkPeerFetch()
	tr.RecordAttempt("10.0.0.1", time.Millisecond, errors.New("x"))

	// A resolver without a sink never creates traces at all...
	r := newTestResolver(t, Config{})
	if got := r.NewTrace(KindQuery, dnswire.MustName("x."), dnswire.TypeA); got != nil {
		t.Errorf("NewTrace = %v with no sink, want nil", got)
	}
	// ...and finishing the nil trace is equally inert.
	r.FinishTrace(nil, nil, nil)
}

// TestTraceStageTimingAndSummary drives a trace through stage spans on
// a virtual clock and checks the summary the sink receives.
func TestTraceStageTimingAndSummary(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	ring := NewRing(4)
	r := newTestResolver(t, Config{Clock: clk, TraceSink: ring})

	tr := r.NewTrace(KindResolve, dnswire.MustName("www.test."), dnswire.TypeA)
	if tr == nil {
		t.Fatal("NewTrace returned nil with a sink configured")
	}
	sp := tr.StartStage(StageIterate)
	clk.Advance(3 * time.Millisecond)

	// Nested re-entry (glue resolution re-entering Iterate) must not
	// double-count: the outer span owns the wall clock.
	inner := tr.StartStage(StageIterate)
	clk.Advance(2 * time.Millisecond)
	inner.End()
	sp.End()

	tr.MarkStale()
	tr.RecordAttempt("10.0.0.1", 4*time.Millisecond, transport.ErrTimeout)
	tr.RecordAttempt("10.0.0.2", time.Millisecond, nil)
	r.FinishTrace(tr, &Result{RCode: dnswire.RCodeNoError}, nil)

	recent := ring.Recent(10)
	if len(recent) != 1 {
		t.Fatalf("ring holds %d summaries, want 1", len(recent))
	}
	ts := recent[0]
	if ts.Kind != "resolve" || ts.Name != "www.test." || ts.Outcome != dnswire.RCodeNoError.String() {
		t.Errorf("summary = %+v", ts)
	}
	if !ts.Stale {
		t.Error("MarkStale not reflected in the summary")
	}
	if got := ts.StageMicros["iterate"]; got != 5000 {
		t.Errorf("iterate stage = %dµs, want 5000 (nested span must not double-count)", got)
	}
	if len(ts.Attempts) != 2 || ts.Attempts[0].Error == "" || ts.Attempts[1].Error != "" {
		t.Errorf("attempts = %+v", ts.Attempts)
	}

	// The finished trace also feeds the resolver's histograms.
	snaps := r.LatencySnapshots()
	if snaps["stage/iterate"].Count != 1 {
		t.Errorf("stage/iterate histogram count = %d, want 1", snaps["stage/iterate"].Count)
	}
	if snaps["kind/resolve"].Count != 1 {
		t.Errorf("kind/resolve histogram count = %d, want 1", snaps["kind/resolve"].Count)
	}
	if snaps["kind/query"].Count != 0 {
		t.Errorf("kind/query histogram count = %d, want 0", snaps["kind/query"].Count)
	}
}

// TestTraceOutcomeError: a failed resolution's summary carries the
// error text.
func TestTraceOutcomeError(t *testing.T) {
	ring := NewRing(1)
	r := newTestResolver(t, Config{TraceSink: ring})
	tr := r.NewTrace(KindRenewal, dnswire.MustName("z."), dnswire.TypeNS)
	r.FinishTrace(tr, nil, errors.New("boom"))
	recent := ring.Recent(1)
	if len(recent) != 1 || recent[0].Outcome != "error: boom" {
		t.Fatalf("recent = %+v, want outcome \"error: boom\"", recent)
	}
}

func TestRingWrapsAndOrders(t *testing.T) {
	ring := NewRing(3)
	for i := uint64(1); i <= 5; i++ {
		ring.Observe(TraceSummary{ID: i})
	}
	got := ring.Recent(10)
	if len(got) != 3 {
		t.Fatalf("Recent returned %d, want 3 (capacity)", len(got))
	}
	for i, want := range []uint64{5, 4, 3} { // newest first
		if got[i].ID != want {
			t.Errorf("Recent[%d].ID = %d, want %d", i, got[i].ID, want)
		}
	}
	if n := len(ring.Recent(2)); n != 2 {
		t.Errorf("Recent(2) returned %d", n)
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewRing(1), NewRing(1)
	if s := MultiSink(nil, nil); s != nil {
		t.Errorf("MultiSink(nil, nil) = %v, want nil", s)
	}
	if s := MultiSink(a, nil); s != Sink(a) {
		t.Errorf("MultiSink with one live sink should return it directly")
	}
	s := MultiSink(a, b)
	s.Observe(TraceSummary{ID: 7})
	if a.Recent(1)[0].ID != 7 || b.Recent(1)[0].ID != 7 {
		t.Error("fan-out did not reach every sink")
	}
}

// TestTraceSummaryJSONGolden freezes the wire form of a finished trace —
// what /debug/queries and -query-log emit — against a file captured
// before Trace and TraceSummary became one record. Between them the two
// traces set every Mark*, time two stages (one re-entered), record a
// failed and a successful attempt, and finish once with a Result and once
// with an error.
func TestTraceSummaryJSONGolden(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	ring := NewRing(4)
	r := newTestResolver(t, Config{Clock: clk, TraceSink: ring})

	tr := r.NewTrace(KindResolve, dnswire.MustName("www.test."), dnswire.TypeA)
	tr.MarkCoalesced()
	tr.MarkStale()
	tr.MarkPeerFetch()
	walk := tr.StartStage(StageChainWalk)
	clk.Advance(250 * time.Microsecond)
	outer := tr.StartStage(StageIterate)
	clk.Advance(3 * time.Millisecond)
	inner := tr.StartStage(StageIterate)
	clk.Advance(2 * time.Millisecond)
	inner.End()
	outer.End()
	walk.End()
	tr.RecordAttempt("10.0.0.1:53", 4*time.Millisecond, transport.ErrTimeout)
	tr.RecordAttempt("10.0.0.2:53", 1500*time.Microsecond, nil)
	r.FinishTrace(tr, &Result{RCode: dnswire.RCodeNXDomain}, nil)

	clk.Advance(time.Second)
	tr = r.NewTrace(KindQuery, dnswire.MustName("mail.test."), dnswire.TypeMX)
	tr.MarkCacheOnly()
	tr.MarkCacheHit()
	sp := tr.StartStage(StageCacheLookup)
	clk.Advance(7 * time.Microsecond)
	sp.End()
	r.FinishTrace(tr, nil, errors.New("boom"))

	got, err := json.Marshal(ring.Recent(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/trace_summary.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Errorf("trace JSON drifted from testdata/trace_summary.json\n got: %s\nwant: %s", got, want)
	}
}
