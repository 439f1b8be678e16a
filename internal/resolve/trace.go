package resolve

import (
	"sync"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// Stage names one pipeline stage for trace timings and histograms.
type Stage int

// The pipeline stages, in traversal order. ValidateIngest and the
// stages below it nest inside Iterate: a stage span opened while the
// same stage is already open (a nested glue or DNSSEC iteration) adds
// nothing, so each stage's time counts wall-clock once.
const (
	StageCacheLookup Stage = iota
	StageChainWalk
	StageIterate
	StageValidateIngest
	StageStaleFallback
	StagePeerFetch
	numStages
)

// stageNames holds each stage's snake_case name: its key in a trace's
// stages_us and, prefixed "stage/", in LatencySnapshots.
var stageNames = [numStages]string{
	StageCacheLookup:    "cache_lookup",
	StageChainWalk:      "chain_walk",
	StageIterate:        "iterate",
	StageValidateIngest: "validate_ingest",
	StageStaleFallback:  "stale_fallback",
	StagePeerFetch:      "peer_fetch",
}

// Kind labels what drove a trace's resolution work.
type Kind int

// Trace kinds: a client query's cache hot path, a coalesced flight's
// full resolution, a renewal refetch, and a background prefetch.
const (
	KindQuery Kind = iota
	KindResolve
	KindRenewal
	KindPrefetch
	numKinds
)

// kindNames holds each kind's name: a trace's "kind" and, prefixed
// "kind/", its key in LatencySnapshots.
var kindNames = [numKinds]string{
	KindQuery:    "query",
	KindResolve:  "resolve",
	KindRenewal:  "renewal",
	KindPrefetch: "prefetch",
}

// TraceSummary is the exported, JSON-ready record of one resolution: what
// a Sink receives, the ring buffer retains and the query log writes.
type TraceSummary struct {
	ID        uint64    `json:"id"`
	Kind      string    `json:"kind"`
	Name      string    `json:"name"`
	Type      string    `json:"type"`
	Start     time.Time `json:"start"`
	Micros    int64     `json:"duration_us"`
	Outcome   string    `json:"outcome"`
	Coalesced bool      `json:"coalesced,omitempty"`
	CacheHit  bool      `json:"cache_hit,omitempty"`
	Stale     bool      `json:"stale,omitempty"`
	CacheOnly bool      `json:"cache_only,omitempty"`
	PeerFetch bool      `json:"peer_fetch,omitempty"`
	// StageMicros maps stage name → microseconds, nonzero stages only.
	StageMicros map[string]int64 `json:"stages_us,omitempty"`
	Attempts    []Attempt        `json:"attempts,omitempty"`
}

// Attempt is one upstream exchange attempt recorded in a trace.
type Attempt struct {
	Server string `json:"server"`
	Micros int64  `json:"rtt_us"`
	Error  string `json:"error,omitempty"`
}

// Trace accumulates one resolution's observable events: stage timings,
// per-attempt upstream outcomes, and cache-path decisions. It is the
// TraceSummary its sink will receive, filled in as the query runs, plus
// the open-span book-keeping. A nil *Trace is valid everywhere and does
// nothing, so the pipeline threads traces unconditionally and pays
// nothing when tracing is off.
//
// A trace belongs to a single goroutine: the client trace to the caller,
// a flight trace to the flight's goroutine. It must not be shared.
type Trace struct {
	TraceSummary
	kind  Kind
	clock simclock.Clock

	stageNanos [numStages]int64
	stageDepth [numStages]int
}

// NewTrace starts a trace of the given kind, or returns nil when no
// trace sink is configured (tracing off — the simulator's mode).
func (r *Resolver) NewTrace(kind Kind, qname dnswire.Name, qtype dnswire.Type) *Trace {
	if r.cfg.TraceSink == nil {
		return nil
	}
	return &Trace{
		TraceSummary: TraceSummary{
			ID:    r.traceID.Add(1),
			Kind:  kindNames[kind],
			Name:  string(qname),
			Type:  qtype.String(),
			Start: r.cfg.Clock.Now(),
		},
		kind:  kind,
		clock: r.cfg.Clock,
	}
}

// FinishTrace stamps the trace's duration and outcome, folds its timings
// into the resolver's histograms and the record's stages_us, and hands
// the record to the sink. A nil trace is a no-op.
func (r *Resolver) FinishTrace(tr *Trace, res *Result, err error) {
	if tr == nil {
		return
	}
	d := tr.clock.Now().Sub(tr.Start)
	tr.Micros = d.Microseconds()
	switch {
	case err != nil:
		tr.Outcome = "error: " + err.Error()
	case res != nil:
		tr.Outcome = res.RCode.String()
	default:
		tr.Outcome = "ok"
	}
	r.kindHist[tr.kind].Observe(d)
	for s, n := range tr.stageNanos {
		if n > 0 {
			r.stageHist[s].Observe(time.Duration(n))
			if tr.StageMicros == nil {
				tr.StageMicros = make(map[string]int64)
			}
			tr.StageMicros[stageNames[s]] = n / 1e3
		}
	}
	r.cfg.TraceSink.Observe(tr.TraceSummary)
}

// LatencySnapshots returns the per-stage and per-kind latency histograms
// accumulated from finished traces, keyed "stage/<stage>" and
// "kind/<kind>". Histograms only fill while a TraceSink is configured.
func (r *Resolver) LatencySnapshots() map[string]metrics.HistogramSnapshot {
	out := make(map[string]metrics.HistogramSnapshot, int(numStages)+int(numKinds))
	for s, name := range stageNames {
		out["stage/"+name] = r.stageHist[s].Snapshot()
	}
	for k, name := range kindNames {
		out["kind/"+name] = r.kindHist[k].Snapshot()
	}
	return out
}

// Span is an open stage timing started by StartStage.
type Span struct {
	tr    *Trace
	stage Stage
	start time.Time
}

// StartStage opens a timing span for stage s. On a nil trace the span is
// inert. Re-entering a stage already open on the same trace (nested
// iterations) returns an inert span so stage time is wall-clock, not
// double-counted.
func (tr *Trace) StartStage(s Stage) Span {
	if tr == nil {
		return Span{}
	}
	tr.stageDepth[s]++
	if tr.stageDepth[s] > 1 {
		return Span{tr: tr, stage: s}
	}
	return Span{tr: tr, stage: s, start: tr.clock.Now()}
}

// End closes the span, adding its elapsed time to the trace's stage
// accumulator.
func (sp Span) End() {
	if sp.tr == nil {
		return
	}
	sp.tr.stageDepth[sp.stage]--
	if sp.start.IsZero() {
		return // nested re-entry: outermost span owns the time
	}
	sp.tr.stageNanos[sp.stage] += sp.tr.clock.Now().Sub(sp.start).Nanoseconds()
}

// MarkCoalesced records that the query joined an in-flight resolution.
func (tr *Trace) MarkCoalesced() {
	if tr != nil {
		tr.Coalesced = true
	}
}

// MarkCacheHit records that the answer came from live cache.
func (tr *Trace) MarkCacheHit() {
	if tr != nil {
		tr.CacheHit = true
	}
}

// MarkStale records that the answer was served from expired records.
func (tr *Trace) MarkStale() {
	if tr != nil {
		tr.Stale = true
	}
}

// MarkCacheOnly records that the query was restricted to cached data
// (an RD=0 probe, or the guard's overload degraded mode).
func (tr *Trace) MarkCacheOnly() {
	if tr != nil {
		tr.CacheOnly = true
	}
}

// MarkPeerFetch records that the answer came from a mesh peer's cache
// after local resolution failed.
func (tr *Trace) MarkPeerFetch() {
	if tr != nil {
		tr.PeerFetch = true
	}
}

// RecordAttempt logs one upstream exchange attempt.
func (tr *Trace) RecordAttempt(server transport.Addr, rtt time.Duration, err error) {
	if tr == nil {
		return
	}
	a := Attempt{Server: string(server), Micros: rtt.Microseconds()}
	if err != nil {
		a.Error = err.Error()
	}
	tr.Attempts = append(tr.Attempts, a)
}

// Sink receives finished trace summaries. Observe is called from the
// goroutine that finished the trace — query handlers, flight goroutines,
// renewal and prefetch workers — so implementations must be safe for
// concurrent use and should return quickly.
type Sink interface {
	Observe(TraceSummary)
}

// Ring is a fixed-size ring buffer Sink retaining the most recent trace
// summaries for the debug endpoint.
type Ring struct {
	mu    sync.Mutex
	buf   []TraceSummary
	next  int
	count int
}

// NewRing returns a ring retaining the last n summaries (min 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]TraceSummary, n)}
}

// Observe implements Sink.
func (rg *Ring) Observe(ts TraceSummary) {
	rg.mu.Lock()
	rg.buf[rg.next] = ts
	rg.next = (rg.next + 1) % len(rg.buf)
	if rg.count < len(rg.buf) {
		rg.count++
	}
	rg.mu.Unlock()
}

// Recent returns up to n summaries, newest first.
func (rg *Ring) Recent(n int) []TraceSummary {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	if n <= 0 || n > rg.count {
		n = rg.count
	}
	out := make([]TraceSummary, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, rg.buf[(rg.next-i+len(rg.buf))%len(rg.buf)])
	}
	return out
}

// MultiSink fans summaries out to every non-nil sink; nil when none.
func MultiSink(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) Observe(ts TraceSummary) {
	for _, s := range m {
		s.Observe(ts)
	}
}
