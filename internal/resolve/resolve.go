// Package resolve is the explicit resolution pipeline behind the caching
// server: the stages a query can traverse —
//
//	CacheLookup → ChainWalk → Iterate → Validate/Ingest → StaleFallback
//
// — plus the single fetch engine (Engine) that every upstream exchange in
// the process goes through: client-driven iteration, prefetch, renewal
// refetches, and missing-glue resolution all funnel into Engine.Fetch,
// which owns query-ID allocation, server selection, per-attempt timeouts,
// the retry budget, and response validation. The `onepath` dnslint
// analyzer enforces that no other call site reaches Transport.Exchange.
//
// The package is deliberately policy-free: renewal credit, the renewal
// scheduler, and request coalescing stay in internal/core, which wires
// itself in through Hooks. Per-query observability flows through an
// optional Trace threaded down the pipeline; a nil trace (the simulator,
// or tracing disabled) costs nothing on the hot path.
package resolve

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnssec"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// Hooks are the upward-facing callbacks the owning server registers so
// pipeline events can drive policy that lives outside this package.
// Either hook may be nil.
type Hooks struct {
	// ZoneQueried fires after a zone's servers returned a validated
	// response to a resolution query (not a renewal refetch): the renewal
	// policy's credit-earning event.
	ZoneQueried func(zone dnswire.Name)
	// InfraCached fires when ingest commits an infrastructure NS RRset,
	// so the renewal scheduler can arm a pre-expiry check.
	InfraCached func(zone dnswire.Name, expires time.Time)
	// PeerFetch is the mesh fallback: consulted only after a top-level
	// resolution has failed every live, quarantined, and stale path, it
	// may return an answer from a fleet peer's cache. Nil (the default,
	// and always in the simulator) leaves resolution behaviour
	// untouched. A nil result means no peer could help.
	PeerFetch func(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) *Result
}

// Config parameterises a Resolver.
type Config struct {
	// Transport carries queries to authoritative servers. Required.
	Transport transport.Transport
	// Clock supplies time; defaults to the wall clock.
	Clock simclock.Clock
	// Cache is the shared cache, owned by the caller. Required. Its
	// KeepStale turns on serve-stale and its NegativeTTL negative
	// caching.
	Cache *cache.Cache
	// RootAddrs are the hard-coded root server addresses. Required.
	RootAddrs []transport.Addr

	// Prefetch re-fetches a cached answer hit in the last tenth of its
	// TTL (unbound-style).
	Prefetch bool
	// AsyncPrefetch moves prefetch refetches off the client's critical
	// path onto a bounded background worker pool — what a live server
	// wants. Leave false for the deterministic inline behaviour the
	// simulator requires.
	AsyncPrefetch bool

	// ValidateDNSSEC verifies answers from signed zones against the
	// DS→DNSKEY chain rooted at TrustAnchors.
	ValidateDNSSEC bool
	// TrustAnchors are trusted DNSKEY RRs (normally the root zone's).
	TrustAnchors []dnswire.RR

	// ParentRecheckInterval forces a query to a zone's parent when the
	// cached delegation has gone unconfirmed for this long.
	ParentRecheckInterval time.Duration

	// AddrMapper converts a name server's address record into a
	// transport address. Defaults to the bare IP string.
	AddrMapper func(addr netip.Addr) transport.Addr

	// Upstream tunes server selection, per-attempt timeouts, quarantine,
	// and the retry budget shared by every fetch path.
	Upstream UpstreamConfig

	// Hooks connect pipeline events to the owning server's policy.
	Hooks Hooks
	// TraceSink receives a summary of every finished trace. Nil disables
	// tracing entirely: NewTrace returns nil and the pipeline does no
	// per-query timing work.
	TraceSink Sink
}

// Result is a completed resolution.
type Result struct {
	RCode dnswire.RCode
	// Answer holds the answer-section records (CNAME chains included).
	Answer []dnswire.RR
	// Authority holds authority-section records for the reply: the SOA
	// of a negative answer (NXDOMAIN/NODATA, RFC 2308), without which a
	// downstream stub cannot negative-cache the outcome.
	Authority []dnswire.RR
	// FromCache reports that no authoritative query was needed.
	FromCache bool
	// Entry is the cache entry the answer is, when it is exactly one live
	// RRset matching the question — no CNAME hop, no negative or stale
	// data — outside the prefetch window; nil otherwise. A reply built
	// from it stays right for as long as LookupPacked says so.
	Entry *cache.Entry
}

// ErrResolutionFailed reports that every reachable path to the answer was
// exhausted (the paper's "failed query").
var ErrResolutionFailed = errors.New("resolve: resolution failed")

// StaleServeTTL is the TTL stamped on stale answers (RFC 8767 recommends
// a short value so clients re-try soon).
const StaleServeTTL = 30

// maxGlueDepth bounds nested resolutions of out-of-bailiwick name-server
// addresses.
const maxGlueDepth = 4

// maxReferrals bounds one resolution's downward steps.
const maxReferrals = 24

// maxCNAME bounds CNAME chain chasing: a chain is followed for at most
// this many hops.
const maxCNAME = 8

// maxGlueFetches caps the total out-of-bailiwick name-server address
// resolutions one client query may trigger, across sibling NS names as
// well as nesting — the NXNSAttack bound (maxGlueDepth alone only limits
// nesting, so a delegation fanning out to dozens of unresolvable NS names
// could still multiply upstream traffic). It has no off switch.
const maxGlueFetches = 16

// Resolver runs the resolution pipeline over a shared cache and one fetch
// engine. It is safe for concurrent use: the cache is sharded internally,
// every other piece of state sits behind its own leaf mutex, and no lock
// is ever held across a Transport.Exchange round-trip.
type Resolver struct {
	cfg    Config
	cache  *cache.Cache
	engine *Engine

	// parentMu guards parentSeen, which records when each zone's
	// delegation was last confirmed by a referral from the parent. It is
	// written only when ParentRecheckInterval is positive.
	parentMu   sync.Mutex
	parentSeen map[dnswire.Name]time.Time

	// secMu guards the DNSSEC chain state: validator (nil when not
	// validating) and the insecure-zone cache.
	secMu     sync.Mutex
	validator *dnssec.Validator
	insecure  map[dnswire.Name]bool

	counters *Counters

	// Tracing state: a serial for trace IDs, the configured sink, and
	// the histograms finished traces feed. All zero-cost when TraceSink
	// is nil (no traces are ever created).
	traceID   atomic.Uint64
	stageHist [numStages]metrics.Histogram
	kindHist  [numKinds]metrics.Histogram

	// pf is the background prefetch pool; nil unless AsyncPrefetch.
	pf *prefetcher
}

// New builds a Resolver from cfg.
func New(cfg Config) (*Resolver, error) {
	if cfg.Transport == nil {
		return nil, errors.New("resolve: Config.Transport is required")
	}
	if cfg.Cache == nil {
		return nil, errors.New("resolve: Config.Cache is required")
	}
	if len(cfg.RootAddrs) == 0 {
		return nil, errors.New("resolve: Config.RootAddrs is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.AddrMapper == nil {
		cfg.AddrMapper = func(a netip.Addr) transport.Addr { return transport.Addr(a.String()) }
	}
	r := &Resolver{
		cfg:        cfg,
		cache:      cfg.Cache,
		parentSeen: make(map[dnswire.Name]time.Time),
		counters:   metrics.NewSet[Counters](),
	}
	eng, err := newEngine(cfg, r.counters)
	if err != nil {
		return nil, err
	}
	r.engine = eng
	if cfg.ValidateDNSSEC {
		if len(cfg.TrustAnchors) == 0 {
			return nil, errors.New("resolve: ValidateDNSSEC requires TrustAnchors")
		}
		r.validator = dnssec.NewValidator(cfg.TrustAnchors...)
		r.insecure = make(map[dnswire.Name]bool)
	}
	if cfg.AsyncPrefetch {
		r.pf = newPrefetcher(r)
	}
	return r, nil
}

// Close stops the background prefetch workers, if any, draining the
// queued work first. Safe to call more than once.
func (r *Resolver) Close() {
	if r.pf != nil {
		r.pf.close()
	}
}

// Counters returns a snapshot of the pipeline's counters.
func (r *Resolver) Counters() Counters { return metrics.Snapshot(r.counters) }

// UpstreamQueries reads just the queries sent upstream and the ones that
// failed, for a caller (the simulator, twice per replayed query) that
// polls too often for a whole reflective snapshot.
func (r *Resolver) UpstreamQueries() (sent, failed uint64) {
	return metrics.Load(&r.counters.QueriesOut), metrics.Load(&r.counters.QueriesOutFailed)
}

// ExportServerStates returns a copy of the per-server selection state,
// sorted by address (checkpointing).
func (r *Resolver) ExportServerStates() []ServerState { return r.engine.upstream.export() }

// RestoreServerStates rebuilds per-server selection state from a
// checkpoint, overwriting state already accumulated for the same servers.
func (r *Resolver) RestoreServerStates(states []ServerState) { r.engine.upstream.restore(states) }

// chainTooLong is the shared exhaustion error for every CNAME-chasing
// mode that must fail when the chain exceeds maxCNAME.
func chainTooLong(qname dnswire.Name) error {
	return fmt.Errorf("%w: CNAME chain too long for %s", ErrResolutionFailed, qname)
}
