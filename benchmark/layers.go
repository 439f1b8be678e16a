package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/guard"
	"resilientdns/internal/transport"
)

// This file is the per-layer half of the meter. Nothing inside dnscache
// is instrumented: layers are timed from outside, by replaying the
// workload's own queries through the real packages wired as cmd/dnscache
// wires them, with a span at every seam an interface offers (guard.Backend,
// transport.Transport, transport.Handler), and by timing a package's
// public calls alone where there is no seam.

// span is one timed interval of the replay. Spans of one query share qid;
// parent is the id of the span that caused this one, 0 for a root.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	QID    uint32 `json:"qid"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory. The replay handles one query at a time,
// so the span that is open when another begins is its parent — even when
// core runs the resolution on a flight goroutine, which is why the stack
// is behind a mutex.
type recorder struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	qid   uint32
	spans []span
	open  []uint32
}

func (r *recorder) begin(name string) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return 0
	}
	id := uint32(len(r.spans) + 1)
	var parent uint32
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, QID: r.qid, Name: name, Start: time.Since(r.epoch).Nanoseconds()})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id uint32) {
	if id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = r.open[:i]
			break
		}
	}
}

// The three seams.

type spanTransport struct {
	inner transport.Transport
	rec   *recorder
	// resps keeps some upstream responses, to time unpacking them.
	resps []*dnswire.Message
}

func (t *spanTransport) Exchange(ctx context.Context, server transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	id := t.rec.begin("transport.exchange")
	resp, err := t.inner.Exchange(ctx, server, q)
	t.rec.end(id)
	if resp != nil && len(t.resps) < 2000 {
		t.resps = append(t.resps, resp)
	}
	return resp, err
}

type spanHandler struct {
	inner transport.Handler
	rec   *recorder
}

func (h spanHandler) HandleQuery(q *dnswire.Message) *dnswire.Message {
	id := h.rec.begin("auth.handle")
	defer h.rec.end(id)
	return h.inner.HandleQuery(q)
}

type spanBackend struct {
	cs  *core.CachingServer
	rec *recorder
}

func (b spanBackend) HandleQuery(q *dnswire.Message) *dnswire.Message {
	id := b.rec.begin("core.handle")
	defer b.rec.end(id)
	return b.cs.HandleQuery(q)
}

func (b spanBackend) HandleQueryCacheOnly(q *dnswire.Message) *dnswire.Message {
	id := b.rec.begin("core.handle")
	defer b.rec.end(id)
	return b.cs.HandleQueryCacheOnly(q)
}

// replayClock is the replay's virtual time: each query happens at the
// moment its plan says, so TTLs expire and the guard's buckets refill as
// in the live run, however fast the replay itself goes.
type replayClock struct{ ns atomic.Int64 }

func (c *replayClock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

// replayQuery is one client query of the replayed sequence.
type replayQuery struct {
	due  int64
	key  uint64
	from *net.UDPAddr
	src  nameSource // legit or the abuser's
}

// replaySequence merges the fixed-rate plans of the live run (same seeds,
// so the same queries) and the abuser's arrivals into one timeline.
func replaySequence(w *workload, t traffic, nproc int, seed int64, dur time.Duration) []replayQuery {
	var seq []replayQuery
	sockets := nproc
	if w.abuseQPS > 0 {
		sockets = 1
	}
	legit := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 40000}
	for i := 0; i < sockets; i++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		plan := poissonPlan(rng, int(float64(w.rate)/float64(sockets)*dur.Seconds()), dur, t.fixed(rng))
		for j := range plan.due {
			seq = append(seq, replayQuery{plan.due[j], plan.keys[j], legit, t.src})
		}
	}
	if w.abuseQPS > 0 {
		rng := rand.New(rand.NewSource(seed))
		from := &net.UDPAddr{IP: abuserIP.AsSlice(), Port: 40001}
		plan := poissonPlan(rng, int(float64(w.abuseQPS)*dur.Seconds()), dur, func() uint64 { return rng.Uint64() >> 16 })
		for j := range plan.due {
			seq = append(seq, replayQuery{plan.due[j], plan.keys[j], from, t.abuse})
		}
	}
	sort.SliceStable(seq, func(a, b int) bool { return seq[a].due < seq[b].due })
	return seq
}

// replayQueries is how many queries of the workload the replay covers,
// and tracedQueries how many of them have their spans written out.
const (
	replayQueries = 20000
	tracedQueries = 2000
)

// replayResult is what the in-process replay measured.
type replayResult struct {
	spans     []span
	layers    map[string]float64
	missShare float64 // share of replayed queries that went upstream
}

// timeOp runs f(0..n-1) five times and returns the median time per call
// and the allocations per call.
func timeOp(n int, f func(i int)) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	var rounds []float64
	var before, after runtime.MemStats
	for r := 0; r < 5; r++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(n))
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	return median(rounds), allocs
}

// replay runs the first replayQueries queries of the workload's fixed-rate
// phase through cache → resolve → core → guard, in process, upstream going
// to the rig's handlers over a transport.Pipe.
func replay(w *workload, seed int64, nproc int, dur time.Duration) (*replayResult, error) {
	spec := w.ttl
	spec.Seed = seed
	r := newRig(spec)
	t := w.traffic(r.slds)
	rec := &recorder{epoch: time.Now()}
	clock := &replayClock{}
	clock.ns.Store(time.Now().UnixNano())

	const port = 53
	pipe := r.pipe(port)
	for addr, h := range pipe.Handlers {
		pipe.Handlers[addr] = spanHandler{h, rec}
	}
	upstream := &spanTransport{inner: pipe, rec: rec}
	policy, err := core.ParsePolicy(w.cache.renewal, w.cache.credit)
	if err != nil {
		return nil, err
	}
	// The same configuration cmd/dnscache builds from its flag defaults
	// plus the workload's flags.
	cs, err := core.NewCachingServer(core.Config{
		Transport:  upstream,
		Clock:      clock,
		RootHints:  []core.ServerRef{{Host: dnswire.MustName("root0.hint."), Addr: transport.Addr(netip.AddrPortFrom(rootAddr, port).String())}},
		RefreshTTL: w.cache.refresh,
		Renewal:    policy,
		MaxTTL:     7 * 24 * time.Hour,
		AddrMapper: func(a netip.Addr) transport.Addr { return transport.Addr(netip.AddrPortFrom(a, port).String()) },
		Upstream:   core.UpstreamConfig{MinTimeout: 200 * time.Millisecond, MaxTimeout: 3 * time.Second, Quarantine: 5 * time.Second, RetryBudget: 16},
	})
	if err != nil {
		return nil, err
	}
	defer cs.Close()
	backend := spanBackend{cs, rec}
	guardCfg := guard.Config{ClientRPS: w.cache.clientRPS, Slip: w.cache.slip, MaxClients: 65536,
		CacheOnlyOnOverload: w.cache.overloadCacheOnly, Clock: clock}
	var g *guard.Guard
	if w.cache.guardOn() {
		g = guard.New(backend, guardCfg)
	}
	handle := func(q *dnswire.Message, from net.Addr) *dnswire.Message {
		if g == nil {
			return backend.HandleQuery(q)
		}
		id := rec.begin("guard.handle")
		defer rec.end(id)
		return g.HandleQueryFrom(q, from)
	}

	// Warm up unrecorded, then apply the blackout.
	var wire []byte
	seq := replaySequence(w, t, nproc, seed, dur)
	if len(seq) > replayQueries {
		seq = seq[:replayQueries]
	}
	for _, key := range t.warm {
		wire = t.src.appendQuery(wire[:0], 1, key)
		q, err := dnswire.Unpack(wire)
		if err != nil {
			return nil, err
		}
		name, addr := t.src.expect(key)
		if resp := handle(q, seq[0].from); resp == nil || checkAnswer(resp, name, addr) != outOK {
			return nil, fmt.Errorf("replay warm-up: wrong answer for %s", name)
		}
	}
	r.blackout(w.dark)

	// The replay proper: unpack → guard → core → pack, one root span per
	// query; due renewals run between queries as dnscache's renewal loop
	// would run them.
	base := clock.ns.Load()
	wires := make([][]byte, 0, len(seq))
	queries := make([]*dnswire.Message, 0, len(seq))
	resps := make([]*dnswire.Message, 0, len(seq))
	scratch := make([]byte, 0, 4096)
	rec.on = true
	var wrong int
	for i, rq := range seq {
		clock.ns.Store(base + rq.due)
		if policy != nil {
			rec.qid = 0
			id := rec.begin("core.renewal")
			cs.ProcessDueRenewals(context.Background(), clock.Now())
			rec.end(id)
		}
		wire = rq.src.appendQuery(nil, uint16(i), rq.key)
		rec.qid = uint32(i + 1)
		root := rec.begin("query")
		id := rec.begin("dnswire.unpack")
		q, err := dnswire.Unpack(wire)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		resp := handle(q, rq.from)
		if resp != nil {
			id = rec.begin("dnswire.pack")
			scratch, err = resp.AppendPack(scratch[:0])
			rec.end(id)
			if err != nil {
				return nil, err
			}
		}
		rec.end(root)
		wires, queries = append(wires, wire), append(queries, q)
		if resp != nil {
			resps = append(resps, resp)
		}
		if rq.src == t.src && !t.src.dark(rq.key) {
			name, addr := t.src.expect(rq.key)
			if resp == nil || checkAnswer(resp, name, addr) != outOK {
				wrong++
			}
		}
	}
	rec.on = false
	if wrong > 0 {
		return nil, fmt.Errorf("replay: %d of %d legit queries not answered correctly", wrong, len(seq))
	}

	res := &replayResult{spans: rec.spans, layers: map[string]float64{}}
	L := res.layers

	// Span arithmetic: a span's self time is its duration minus its
	// children's.
	self := make([]int64, len(rec.spans))
	upstreamOf := map[uint32]bool{} // query ids that reached the transport
	for i, s := range rec.spans {
		self[i] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
		if s.Name == "transport.exchange" && s.QID != 0 {
			upstreamOf[s.QID] = true
		}
	}
	var hitCore, hitN, missSelf, missN float64
	for i, s := range rec.spans {
		if s.Name != "core.handle" {
			continue
		}
		if upstreamOf[s.QID] {
			missSelf += float64(self[i])
			missN++
		} else {
			hitCore += float64(s.End - s.Start)
			hitN++
		}
	}
	res.missShare = float64(len(upstreamOf)) / float64(len(seq))

	// Standalone timings where no seam exists.
	n := len(wires)
	if n > tracedQueries {
		n = tracedQueries
	}
	L["dnswire.unpack_query_ns"], L["dnswire.unpack_query_allocs"] = timeOp(n, func(i int) { dnswire.Unpack(wires[i]) })
	L["dnswire.append_pack_ns"], L["dnswire.append_pack_allocs"] = timeOp(min(n, len(resps)), func(i int) { scratch, _ = resps[i].AppendPack(scratch[:0]) })
	upWires := make([][]byte, 0, len(upstream.resps))
	for _, m := range upstream.resps {
		if b, err := m.Pack(); err == nil {
			upWires = append(upWires, b)
		}
	}
	L["dnswire.unpack_resp_ns"], _ = timeOp(len(upWires), func(i int) { dnswire.Unpack(upWires[i]) })

	if g != nil {
		// The guard alone, over the same arrivals at the same virtual
		// times, in front of a backend that does nothing.
		admitClock := &replayClock{}
		cfg := guardCfg
		cfg.Clock = admitClock
		bare := guard.New(noBackend{}, cfg)
		L["guard.admit_ns"], _ = timeOp(len(seq), func(i int) {
			admitClock.ns.Store(base + seq[i].due)
			bare.HandleQueryFrom(queries[i], seq[i].from)
		})
	}

	// Names the cache can answer now, and names it never saw.
	resolver := cs.Resolver()
	var cached, absent []dnswire.Name
	for i, rq := range seq {
		if len(cached) == tracedQueries {
			break
		}
		name := queries[i].Question[0].Name
		if rq.src == t.src && !t.src.dark(rq.key) {
			if res, _ := resolver.Lookup(nil, name, dnswire.TypeA); res != nil {
				cached = append(cached, name)
			}
		}
	}
	for i := 0; i < tracedQueries; i++ {
		absent = append(absent, leafName("h", uint64(1<<40+i), r.slds[i%len(r.slds)]))
	}
	lookupHit, lookupHitAllocs := timeOp(len(cached), func(i int) { resolver.Lookup(nil, cached[i], dnswire.TypeA) })
	L["resolve.lookup_hit_ns"], L["resolve.lookup_hit_allocs"] = lookupHit, lookupHitAllocs
	L["resolve.lookup_miss_ns"], _ = timeOp(len(absent), func(i int) { resolver.Lookup(nil, absent[i], dnswire.TypeA) })
	L["cache.get_ns"], _ = timeOp(len(cached), func(i int) { cs.Cache().Get(cached[i], dnswire.TypeA) })
	fresh := cache.New(cache.Config{Clock: clock})
	sets := make([][]dnswire.RR, replayQueries)
	for i := range sets {
		name := leafName("h", uint64(i), r.slds[i%len(r.slds)])
		sets[i] = []dnswire.RR{rr(name, spec.DataTTL, dnswire.A{Addr: hostAddr(name)})}
	}
	L["cache.put_ns"], L["cache.put_allocs"] = timeOp(len(sets), func(i int) { fresh.Put(sets[i], cache.CredAnswer, false) })
	L["cache.evictions"] = float64(cs.Cache().Evictions())

	if hitN > 0 {
		// core's own share of a hit: HandleQuery minus the Lookup in it.
		hits := make([]*dnswire.Message, len(cached))
		for i, name := range cached {
			hits[i] = dnswire.NewQuery(uint16(i), name, dnswire.TypeA)
			hits[i].Flags.RecursionDesired = true
		}
		_, handleAllocs := timeOp(len(hits), func(i int) { cs.HandleQuery(hits[i]) })
		L["core.handle_hit_allocs"] = handleAllocs - lookupHitAllocs
		L["core.handle_hit_ns"] = hitCore/hitN - lookupHit
	}
	if missN > 0 {
		L["core.resolve_miss_us"] = missSelf / missN / 1e3
	}
	return res, nil
}

type noBackend struct{}

func (noBackend) HandleQuery(*dnswire.Message) *dnswire.Message          { return nil }
func (noBackend) HandleQueryCacheOnly(*dnswire.Message) *dnswire.Message { return nil }

// writeTrace writes the spans of the first tracedQueries queries to
// benchmark/out/trace-<workload>.json.
func writeTrace(root, workload string, spans []span) (path string, written int, err error) {
	dir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	n := 0
	for n < len(spans) && spans[n].QID <= tracedQueries {
		n++
	}
	path = filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	if err := json.NewEncoder(f).Encode(spans[:n]); err != nil {
		f.Close()
		return "", 0, err
	}
	return path, n, f.Close()
}
