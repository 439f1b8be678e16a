package core

import (
	"bytes"
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/resolve"
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

// viaInline answers q the way the UDP read loop does: the inline entry,
// then HandleQuery when that declines.
func viaInline(cs *CachingServer, q *dnswire.Message) (resp *dnswire.Message, inline bool) {
	if resp, done := cs.HandleInline(q, netip.AddrPort{}); done {
		return resp, true
	}
	return cs.HandleQuery(q), false
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
// with a sink counting its finished traces.
type primed struct {
	f    *fixture
	sink *kindSink
}

func newPrimed(t *testing.T) primed {
	sink := &kindSink{}
	f := newFixture(t, Config{NegativeTTL: time.Hour, Prefetch: true, TraceSink: sink})
	for _, warm := range frontendCorpus()[:4] {
		f.cs.HandleQuery(warm.q)
	}
	return primed{f, sink}
}

// ask runs one corpus query through do and reports, on failure, unless
// it moved the frontend counters and the query traces by exactly one set
// (counted) or not at all.
func (p primed) ask(t *testing.T, label string, tc corpusQuery, do func()) {
	t.Helper()
	if tc.name == "prefetch-window hit" {
		p.f.clock.Advance(280 * time.Second)
	}
	before, traces := p.f.cs.Stats(), p.sink.queries()
	do()
	after := p.f.cs.Stats()
	one := uint64(0)
	if tc.counted {
		one = 1
	}
	in := after.QueriesIn - before.QueriesIn
	closed := after.Resolved - before.Resolved + after.Failed - before.Failed
	answered := after.CacheAnswered - before.CacheAnswered
	if in != one || closed != one || answered > after.Resolved-before.Resolved || p.sink.queries()-traces != int(one) {
		t.Errorf("%s, %s: QueriesIn +%d, Resolved+Failed +%d, CacheAnswered +%d, query traces +%d; want +%d each (CacheAnswered at most Resolved)",
			tc.name, label, in, closed, answered, p.sink.queries()-traces, one)
	}
}

// TestInlineMatchesHandleQuery runs one corpus through twin servers, one
// asked "HandleInline, then HandleQuery if !done" and one HandleQuery
// alone: the answers pack byte-identical, and on both every query moves
// the frontend counters and the query traces by exactly one set — the
// declined half of a miss leaves no mark.
func TestInlineMatchesHandleQuery(t *testing.T) {
	a, b := newPrimed(t), newPrimed(t)
	for _, tc := range frontendCorpus() {
		a0, b0 := a.f.cs.Stats(), b.f.cs.Stats()
		var got, want *dnswire.Message
		var inline bool
		a.ask(t, "inline path", tc, func() { got, inline = viaInline(a.f.cs, tc.q) })
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

// TestEveryEntryCountsOnce: each of the four query entries — Resolve (the
// simulator's), HandleQuery, HandleInline then HandleQuery (the UDP read
// loop's), HandleQueryCacheOnly (overload and mesh peers) — is the same
// one accounting function underneath, so over the whole corpus every
// query that gets past the front door is counted, closed and traced
// exactly once, and a refused one not at all. Resolve has no front door:
// it is asked only what gets past it.
func TestEveryEntryCountsOnce(t *testing.T) {
	for _, e := range []struct {
		name string
		ask  func(cs *CachingServer, q *dnswire.Message)
	}{
		{"Resolve", func(cs *CachingServer, q *dnswire.Message) {
			cs.Resolve(context.Background(), q.Question[0].Name, q.Question[0].Type)
		}},
		{"HandleQuery", func(cs *CachingServer, q *dnswire.Message) { cs.HandleQuery(q) }},
		{"HandleInline then HandleQuery", func(cs *CachingServer, q *dnswire.Message) { viaInline(cs, q) }},
		{"HandleQueryCacheOnly", func(cs *CachingServer, q *dnswire.Message) { cs.HandleQueryCacheOnly(q) }},
	} {
		p := newPrimed(t)
		for _, tc := range frontendCorpus() {
			if e.name == "Resolve" && !tc.counted {
				continue
			}
			p.ask(t, e.name, tc, func() { e.ask(p.f.cs, tc.q) })
		}
	}
}

// TestInlineTraceStages: under a real clock, where a stage takes time,
// every query through the inline path adds exactly one observation to the
// query-kind and cache_lookup histograms — the traced benchmark run
// divides by these — whether the read loop settled it or declined it.
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
	}{{"hit", hit}, {"miss", miss}, {"RD=0 miss", probe}} {
		before := cs.Resolver().LatencySnapshots()
		viaInline(cs, tc.q)
		after := cs.Resolver().LatencySnapshots()
		for _, key := range []string{"kind/query", "stage/cache_lookup"} {
			if d := after[key].Count - before[key].Count; d != 1 {
				t.Errorf("%s: %s observed %d times, want once", tc.name, key, d)
			}
		}
	}
}

// TestInlineHitAllocs bounds what a cache hit allocates on the read loop:
// the reply, its sections and Lookup's result — no context, no timer (the
// parent's HandleQuery: 10, four of them the deadline's). HandleQuery
// builds its deadline after the miss too, so a hit costs it the same.
func TestInlineHitAllocs(t *testing.T) {
	f := newFixture(t, Config{})
	q := dnswire.NewQuery(1, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	f.cs.HandleQuery(q)

	inline := testing.AllocsPerRun(200, func() {
		if _, done := f.cs.HandleInline(q, netip.AddrPort{}); !done {
			t.Fatal("warm A record was not settled inline")
		}
	})
	full := testing.AllocsPerRun(200, func() { f.cs.HandleQuery(q) })
	if inline > 6 || full > 6 {
		t.Errorf("allocations per hit: HandleInline %.0f, HandleQuery %.0f; want at most 6 each", inline, full)
	}
}
