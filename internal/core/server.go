package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/resolve"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// CachingServer is the paper's modified caching server (CS): the policy
// shell around the resolution pipeline in internal/resolve. The pipeline
// owns cache lookup, CNAME chasing, iteration, validation/ingest, and the
// stale fallback, plus the single fetch engine every upstream exchange
// goes through; this type keeps what is policy rather than mechanism —
// request coalescing, renewal credit and the renewal scheduler, and the
// frontend counters — and wires itself into the pipeline via
// resolve.Hooks.
//
// It is safe for concurrent use: the cache is sharded internally, the
// remaining state is split into independently locked components, and no
// lock is ever held across a Transport.Exchange round-trip. Concurrent
// Resolve calls for the same (name, type) coalesce into one upstream
// resolution. The trace-driven simulator uses the same code
// single-threaded, where every operation stays deterministic.
//
// Lock hierarchy (a goroutine may only take locks downward in this list,
// and never holds one across upstream I/O):
//
//	flightMu > renewMu > cache shard locks
//	the resolver's parentMu and secMu and the memo shard locks are
//	leaves taken on their own.
type CachingServer struct {
	cfg      Config
	cache    *cache.Cache
	resolver *resolve.Resolver

	// renewMu guards the renewal scheduler: per-zone credit, the due
	// queue, and the scheduled set.
	renewMu   sync.Mutex
	credits   map[dnswire.Name]float64
	renew     renewQueue
	scheduled map[dnswire.Name]bool

	// flightMu guards the in-flight resolution table.
	flightMu sync.Mutex
	flight   map[cache.Key]*flightCall
	// flights runs the flights on warm goroutines.
	flights transport.Workers

	// stats is the live counter set; only its frontend fields are
	// bumped here (see Stats).
	stats *Stats

	// packed memoises replies for the read loop's plain queries
	// (HandleInline); Resolve never sees it.
	packed *packedMemo
}

// renewLead is how far before expiry a renewal refetch fires ("just
// before they are ready to expire", §4).
const renewLead = time.Second

// NewCachingServer builds a caching server from cfg.
func NewCachingServer(cfg Config) (*CachingServer, error) {
	if cfg.Transport == nil {
		return nil, errors.New("core: Config.Transport is required")
	}
	if len(cfg.RootHints) == 0 {
		return nil, errors.New("core: Config.RootHints is required")
	}
	if cfg.ValidateDNSSEC && len(cfg.TrustAnchors) == 0 {
		return nil, errors.New("core: ValidateDNSSEC requires TrustAnchors")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	cs := &CachingServer{
		cfg: cfg,
		cache: cache.New(cache.Config{
			Clock:           cfg.Clock,
			MaxTTL:          cfg.MaxTTL,
			RefreshInfraTTL: cfg.RefreshTTL,
			OnGap:           cfg.OnGap,
			OnChange:        cfg.OnCacheChange,
			KeepStale:       cfg.ServeStale,
			NegativeTTL:     cfg.NegativeTTL,
		}),
		credits:   make(map[dnswire.Name]float64),
		scheduled: make(map[dnswire.Name]bool),
		flight:    make(map[cache.Key]*flightCall),
		stats:     metrics.NewSet[Stats](),
		packed:    newPackedMemo(),
	}
	rootAddrs := make([]transport.Addr, 0, len(cfg.RootHints))
	for _, h := range cfg.RootHints {
		rootAddrs = append(rootAddrs, h.Addr)
	}
	hooks := resolve.Hooks{ZoneQueried: cs.updateCredit}
	if cfg.Renewal != nil {
		hooks.InfraCached = cs.scheduleRenewal
	}
	if cfg.Fleet != nil {
		hooks.PeerFetch = cs.peerFetch
	}
	r, err := resolve.New(resolve.Config{
		Transport:             cfg.Transport,
		Clock:                 cfg.Clock,
		Cache:                 cs.cache,
		RootAddrs:             rootAddrs,
		Prefetch:              cfg.Prefetch,
		AsyncPrefetch:         cfg.AsyncPrefetch,
		ValidateDNSSEC:        cfg.ValidateDNSSEC,
		TrustAnchors:          cfg.TrustAnchors,
		ParentRecheckInterval: cfg.ParentRecheckInterval,
		AddrMapper:            cfg.AddrMapper,
		Upstream:              cfg.Upstream,
		Hooks:                 hooks,
		TraceSink:             cfg.TraceSink,
	})
	if err != nil {
		return nil, err
	}
	cs.resolver = r
	return cs, nil
}

// Close releases background resources: the idle flight goroutines, once
// the flights under way finish, and the async prefetch pool, when enabled.
// Safe to call more than once; a query after Close still resolves.
func (cs *CachingServer) Close() {
	cs.flights.Close()
	cs.resolver.Close()
}

// CacheStats reports cache occupancy after sweeping expired entries (the
// simulator's Fig. 3 / Fig. 12 sampling point). A live server reads
// Cache().Stats() instead, which takes no write lock.
func (cs *CachingServer) CacheStats() cache.Stats {
	cs.cache.SweepExpired()
	return cs.cache.Stats()
}

// Cache exposes the underlying cache for tests and examples.
func (cs *CachingServer) Cache() *cache.Cache { return cs.cache }

// Resolver exposes the resolution pipeline: the trace/latency surface
// (LatencySnapshots), the fetch engine, and the refetch path used by
// diagnostics and tests.
func (cs *CachingServer) Resolver() *resolve.Resolver { return cs.resolver }

// Resolve answers one stub-resolver query — the simulator's entry, with
// no frontend deadline. Concurrent calls for the same (name, type) share a
// single upstream resolution.
func (cs *CachingServer) Resolve(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) (*Result, error) {
	res, _, err := cs.resolve(ctx, 0, answerFully, qname, qtype, nil)
	return res, err
}

// resolve is every stub query's one count, one trace and one finish. The
// cache is asked first — LookupCacheOnly (live, negative, then stale) in
// answerCacheOnly, the live cache otherwise, and for a memoised reply
// (packed, the entry it was built from) LookupPacked alone — and only a
// miss goes on: answerLive declines it (done=false) with nothing counted
// and the trace unfinished, so HandleQuery can take it from the top as if
// it had just arrived; answerFully resolves upstream and waits for
// timeout at most (when positive), so a hit never pays for a timer it
// cannot use.
// When a TraceSink is configured the trace covers the cache hot path and
// the coalescing outcome; the shared flight carries its own trace (it
// serves many queries, so its timings belong to no single caller). A nil
// result with done and no error means nothing cached could answer; a
// memoised reply's hit has no records, the caller holds them packed.
func (cs *CachingServer) resolve(ctx context.Context, timeout time.Duration, mode answerMode, qname dnswire.Name, qtype dnswire.Type, packed *cache.Entry) (res *Result, done bool, err error) {
	tr := cs.resolver.NewTrace(resolve.KindQuery, qname, qtype)
	switch {
	case packed != nil:
		if cs.resolver.LookupPacked(tr, packed) {
			res = &packedHit
		}
	case mode == answerCacheOnly:
		res, err = cs.resolver.LookupCacheOnly(tr, qname, qtype)
	default:
		res, err = cs.resolver.Lookup(tr, qname, qtype)
	}
	miss := err == nil && res == nil && mode != answerCacheOnly
	if miss && mode == answerLive {
		return nil, false, nil
	}
	metrics.Inc(&cs.stats.QueriesIn)
	if miss {
		res, err = cs.resolveCoalesced(ctx, timeout, tr, qname, qtype)
	}
	cs.resolver.FinishTrace(tr, res, err)
	if err != nil || res == nil {
		metrics.Inc(&cs.stats.Failed)
		return nil, true, err
	}
	metrics.Inc(&cs.stats.Resolved)
	if res.FromCache {
		metrics.Inc(&cs.stats.CacheAnswered)
	}
	if packed != nil {
		metrics.Inc(&cs.stats.PackedAnswers)
	}
	return res, true, nil
}

// packedHit is what resolve reports for a memoised reply it may serve.
var packedHit = Result{RCode: dnswire.RCodeNoError, FromCache: true}

// updateCredit applies the renewal policy on a query to zname; it is the
// pipeline's ZoneQueried hook.
func (cs *CachingServer) updateCredit(zname dnswire.Name) {
	if cs.cfg.Renewal == nil || zname.IsRoot() {
		return
	}
	ttl := cache.DefaultMaxTTL
	if e := cs.cache.Peek(zname, dnswire.TypeNS); e != nil {
		ttl = e.OrigTTL()
	}
	cs.renewMu.Lock()
	cs.credits[zname] = cs.cfg.Renewal.Update(cs.credits[zname], ttl)
	cs.renewMu.Unlock()
}
