package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/resolve"
	"resilientdns/internal/transport"
)

// kindSink counts finished traces by kind.
type kindSink struct {
	mu    sync.Mutex
	kinds map[string]int
}

func (s *kindSink) Observe(ts resolve.TraceSummary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kinds == nil {
		s.kinds = make(map[string]int)
	}
	s.kinds[ts.Kind]++
}

func (s *kindSink) queries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kinds["query"]
}

// sendWire answers wire the way the UDP read loop does — QueryKey's probe,
// the inline entry, then HandleQuery when that declines — and returns the
// bytes the loop would send, nil for a drop: the inline entry's packed
// reply as it is, or the answer packed (none of these needs truncating).
// It reports a failure with t.Errorf, so any goroutine may call it.
func sendWire(t testing.TB, cs *CachingServer, wire []byte) (out []byte, inline bool) {
	t.Helper()
	q := transport.Query{Wire: wire}
	var plain bool
	if q.Key, q.ID, plain = dnswire.QueryKey(wire, nil); !plain {
		var err error
		if q.Msg, err = dnswire.Unpack(wire); err != nil {
			t.Errorf("Unpack: %v", err)
			return nil, false
		}
	}
	packed, resp, done := cs.HandleInline(&q, make([]byte, 0, 4096))
	switch {
	case packed != nil:
		return packed, true
	case !done:
		resp, inline = cs.HandleQuery(q.Msg), false
	default:
		inline = true
	}
	if resp == nil {
		return nil, inline
	}
	out, err := resp.Pack()
	if err != nil {
		t.Errorf("Pack: %v", err)
	}
	return out, inline
}

// viaInline is sendWire for a query message, with the answer unpacked.
func viaInline(t testing.TB, cs *CachingServer, q *dnswire.Message) (resp *dnswire.Message, inline bool) {
	t.Helper()
	wire, err := q.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	out, inline := sendWire(t, cs, wire)
	if out == nil {
		return nil, inline
	}
	if resp, err = dnswire.Unpack(out); err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	return resp, inline
}

// corpusQuery is one query of the frontend corpus.
type corpusQuery struct {
	name string
	q    *dnswire.Message
	// inline is whether the read loop settles it; counted is whether it
	// gets past the front door, to be counted and traced.
	inline, counted bool
}

// frontendCorpus is every kind of query the frontend tells apart, for a
// server primed by newPrimed: hits of each cached shape, RD=0, front-door
// refusals, EDNS0, a miss, and — last, because it moves the clock into
// www.ucla.edu.'s final tenth, where inline prefetch hands the hit to the
// slow path — a prefetch-window hit.
func frontendCorpus() []corpusQuery {
	query := func(name string, qtype dnswire.Type, edit func(*dnswire.Message)) *dnswire.Message {
		q := dnswire.NewQuery(7, dnswire.MustName(name), qtype)
		q.Flags.RecursionDesired = true
		if edit != nil {
			edit(q)
		}
		return q
	}
	noRD := func(q *dnswire.Message) { q.Flags.RecursionDesired = false }
	return []corpusQuery{
		{"hit", query("www.ucla.edu.", dnswire.TypeA, nil), true, true},
		{"cached CNAME chain", query("alias.ucla.edu.", dnswire.TypeA, nil), true, true},
		{"NXDOMAIN from the negative cache", query("missing.ucla.edu.", dnswire.TypeA, nil), true, true},
		{"NODATA from the negative cache", query("www.ucla.edu.", dnswire.TypeMX, nil), true, true},
		{"RD=0 hit", query("www.ucla.edu.", dnswire.TypeA, noRD), true, true},
		{"RD=0 miss", query("cold.ucla.edu.", dnswire.TypeA, noRD), true, true},
		{"bad opcode", query("www.ucla.edu.", dnswire.TypeA, func(q *dnswire.Message) { q.Opcode = 2 }), true, false},
		{"two questions", query("www.ucla.edu.", dnswire.TypeA, func(q *dnswire.Message) { q.Question = append(q.Question, q.Question[0]) }), true, false},
		{"non-IN", query("www.ucla.edu.", dnswire.TypeA, func(q *dnswire.Message) { q.Question[0].Class = dnswire.ClassCH }), true, false},
		{"AXFR", query("ucla.edu.", dnswire.TypeAXFR, nil), true, false},
		{"EDNS0 1232", query("www.ucla.edu.", dnswire.TypeA, func(q *dnswire.Message) { q.SetEDNS0(1232) }), true, true},
		{"EDNS0 400", query("www.ucla.edu.", dnswire.TypeA, func(q *dnswire.Message) { q.SetEDNS0(400) }), true, true},
		{"plain miss", query("www.oob.edu.", dnswire.TypeA, nil), false, true},
		{"prefetch-window hit", query("www.ucla.edu.", dnswire.TypeA, nil), false, true},
	}
}

// primed is a fixture whose cache holds the corpus's first four answers,
// with a sink counting its finished traces unless it runs untraced.
type primed struct {
	f    *fixture
	sink *kindSink // nil: no TraceSink
}

func newPrimed(t *testing.T, traced bool) primed {
	cfg := Config{NegativeTTL: time.Hour, Prefetch: true}
	var sink *kindSink
	if traced {
		sink = &kindSink{}
		cfg.TraceSink = sink
	}
	f := newFixture(t, cfg)
	for _, warm := range frontendCorpus()[:4] {
		f.cs.HandleQuery(warm.q)
	}
	return primed{f, sink}
}

// traces is the number of query traces finished so far.
func (p primed) traces() int {
	if p.sink == nil {
		return 0
	}
	return p.sink.queries()
}

// ask runs one corpus query through do and reports, on failure, unless
// it moved the frontend counters and the query traces (when traced) by
// exactly one set (counted) or not at all.
func (p primed) ask(t *testing.T, label string, tc corpusQuery, do func()) {
	t.Helper()
	if tc.name == "prefetch-window hit" {
		p.f.clock.Advance(280 * time.Second)
	}
	before, traces := p.f.cs.Stats(), p.traces()
	do()
	after := p.f.cs.Stats()
	one := uint64(0)
	if tc.counted {
		one = 1
	}
	wantTraces := int(one)
	if p.sink == nil {
		wantTraces = 0
	}
	in := after.QueriesIn - before.QueriesIn
	closed := after.Resolved - before.Resolved + after.Failed - before.Failed
	answered := after.CacheAnswered - before.CacheAnswered
	packed := after.PackedAnswers - before.PackedAnswers
	if in != one || closed != one || answered > after.Resolved-before.Resolved || packed > answered || p.traces()-traces != wantTraces {
		t.Errorf("%s, %s: QueriesIn +%d, Resolved+Failed +%d, CacheAnswered +%d, PackedAnswers +%d, query traces +%d; want +%d each (traces +%d; PackedAnswers at most CacheAnswered at most Resolved)",
			tc.name, label, in, closed, answered, packed, p.traces()-traces, one, wantTraces)
	}
}

// TestInlineMatchesHandleQuery runs one corpus through twin servers, one
// asked "HandleInline, then HandleQuery if !done" and one HandleQuery
// alone: the answers pack byte-identical, and on both every query moves
// the frontend counters and the query traces by exactly one set — the
// declined half of a miss leaves no mark.
func TestInlineMatchesHandleQuery(t *testing.T) {
	a, b := newPrimed(t, true), newPrimed(t, true)
	for _, tc := range frontendCorpus() {
		a0, b0 := a.f.cs.Stats(), b.f.cs.Stats()
		var got, want *dnswire.Message
		var inline bool
		a.ask(t, "inline path", tc, func() { got, inline = viaInline(t, a.f.cs, tc.q) })
		b.ask(t, "HandleQuery alone", tc, func() { want = b.f.cs.HandleQuery(tc.q) })

		if inline != tc.inline {
			t.Errorf("%s: settled inline = %v, want %v", tc.name, inline, tc.inline)
		}
		gotWire, err := got.Pack()
		if err != nil {
			t.Fatalf("%s: Pack: %v", tc.name, err)
		}
		wantWire, err := want.Pack()
		if err != nil {
			t.Fatalf("%s: Pack: %v", tc.name, err)
		}
		if !bytes.Equal(gotWire, wantWire) {
			t.Errorf("%s: inline path answered\n%v\nHandleQuery alone answered\n%v", tc.name, got, want)
		}
		a1, b1 := a.f.cs.Stats(), b.f.cs.Stats()
		if ca, cb := a1.CacheAnswered-a0.CacheAnswered, b1.CacheAnswered-b0.CacheAnswered; ca != cb {
			t.Errorf("%s: CacheAnswered +%d on the inline path, +%d by HandleQuery alone", tc.name, ca, cb)
		}
	}
}

// TestEveryEntryCountsOnce: each of the five query exits — Resolve (the
// simulator's), HandleQuery, HandleInline then HandleQuery (the UDP read
// loop's), the same answered from the packed-reply memo, and
// HandleQueryCacheOnly (overload and mesh peers) — is the same one
// accounting function underneath, so over the whole corpus, traced and
// untraced, every query that gets past the front door is counted, closed
// and traced exactly once, and a refused one not at all. Resolve has no
// front door: it is asked only what gets past it. The memo exit asks each
// query once unmeasured first, which fills the memo: the corpus's four
// plain questions answered by one live RRset are then sent from it.
func TestEveryEntryCountsOnce(t *testing.T) {
	for _, e := range []struct {
		name   string
		ask    func(cs *CachingServer, q *dnswire.Message)
		memo   bool
		packed uint64 // PackedAnswers over the measured asks
	}{
		{name: "Resolve", ask: func(cs *CachingServer, q *dnswire.Message) {
			cs.Resolve(context.Background(), q.Question[0].Name, q.Question[0].Type)
		}},
		{name: "HandleQuery", ask: func(cs *CachingServer, q *dnswire.Message) { cs.HandleQuery(q) }},
		// EDNS0 400 finds the reply EDNS0 1232 memoised: the payload size
		// is not part of the key.
		{name: "HandleInline then HandleQuery", ask: func(cs *CachingServer, q *dnswire.Message) { viaInline(t, cs, q) }, packed: 1},
		{name: "packed-reply memo", ask: func(cs *CachingServer, q *dnswire.Message) { viaInline(t, cs, q) }, memo: true, packed: 4},
		{name: "HandleQueryCacheOnly", ask: func(cs *CachingServer, q *dnswire.Message) { cs.HandleQueryCacheOnly(q) }},
	} {
		for _, traced := range []bool{true, false} {
			p := newPrimed(t, traced)
			var packed uint64
			for _, tc := range frontendCorpus() {
				if e.name == "Resolve" && !tc.counted {
					continue
				}
				if e.memo {
					viaInline(t, p.f.cs, tc.q)
				}
				before := p.f.cs.Stats().PackedAnswers
				p.ask(t, e.name, tc, func() { e.ask(p.f.cs, tc.q) })
				packed += p.f.cs.Stats().PackedAnswers - before
			}
			if packed != e.packed {
				t.Errorf("%s (traced %v): %d answers sent from the memo, want %d", e.name, traced, packed, e.packed)
			}
		}
	}
}

// TestInlineTraceStages: under a real clock, where a stage takes time,
// every query through the inline path adds exactly one observation to the
// query-kind and cache_lookup histograms — the traced benchmark run
// divides by these — whether the read loop settled it, sent it from the
// memo (the first hit filled it) or declined it.
func TestInlineTraceStages(t *testing.T) {
	cs := newPipeHierarchy(t, Config{TraceSink: discardSink{}}, 3600, 1)
	hit := dnswire.NewQuery(1, dnswire.MustName("www.example."), dnswire.TypeA)
	hit.Flags.RecursionDesired = true
	cs.HandleQuery(hit)
	miss := dnswire.NewQuery(2, dnswire.MustName("host0.example."), dnswire.TypeA)
	miss.Flags.RecursionDesired = true
	probe := dnswire.NewQuery(3, dnswire.MustName("cold.example."), dnswire.TypeA)

	for _, tc := range []struct {
		name string
		q    *dnswire.Message
	}{{"hit", hit}, {"memoised hit", hit}, {"miss", miss}, {"RD=0 miss", probe}} {
		before := cs.Resolver().LatencySnapshots()
		viaInline(t, cs, tc.q)
		after := cs.Resolver().LatencySnapshots()
		for _, key := range []string{"kind/query", "stage/cache_lookup"} {
			if d := after[key].Count - before[key].Count; d != 1 {
				t.Errorf("%s: %s observed %d times, want once", tc.name, key, d)
			}
		}
	}
}

// TestInlineHitAllocs bounds what a cache hit allocates on the read loop
// when the query arrives unpacked, as every hit before its reply is
// memoised does: the reply, its sections and Lookup's result — no
// context, no timer (the parent's HandleQuery: 10, four of them the
// deadline's). HandleQuery builds its deadline after the miss too, so a
// hit costs it the same.
func TestInlineHitAllocs(t *testing.T) {
	f := newFixture(t, Config{})
	q := dnswire.NewQuery(1, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	f.cs.HandleQuery(q)

	buf := make([]byte, 0, 4096)
	var query transport.Query
	inline := testing.AllocsPerRun(200, func() {
		query = transport.Query{Msg: q}
		if _, _, done := f.cs.HandleInline(&query, buf); !done {
			t.Fatal("warm A record was not settled inline")
		}
	})
	full := testing.AllocsPerRun(200, func() { f.cs.HandleQuery(q) })
	if inline > 6 || full > 6 {
		t.Errorf("allocations per hit: HandleInline %.0f, HandleQuery %.0f; want at most 6 each", inline, full)
	}
}
