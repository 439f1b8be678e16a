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
// The package is deliberately policy-free: it declares the caching
// server's one Config, policy settings included, but reads none of the
// policy settings. Renewal credit, the renewal scheduler, and request
// coalescing stay in internal/core, which builds the cache and wires
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
}

// ServerRef names one authoritative server endpoint.
type ServerRef struct {
	// Host is the server's DNS name (e.g. "a.root-servers.net.").
	Host dnswire.Name
	// Addr is where to reach it.
	Addr transport.Addr
}

// RenewalPolicy assigns per-zone renewal credit. Each time a zone's
// authoritative servers are queried during normal resolution, Update
// recomputes the zone's credit; every time the zone's cached IRRs are
// about to expire, one unit of credit buys one refetch-and-renew cycle.
// The policies themselves live in internal/core.
type RenewalPolicy interface {
	// Name returns the policy's display name (e.g. "A-LFU(5)").
	Name() string
	// Update returns the zone's new credit after a query to the zone,
	// given its current credit and the zone's IRR TTL.
	Update(current float64, irrTTL time.Duration) float64
}

// Fleet is what a caching server asks of the mesh it is a member of;
// *mesh.Node satisfies it as it stands, so neither core nor resolve
// imports mesh. The node in turn needs the server as its Backend: build
// the node first without one, put it in Config.Fleet, and hand the
// finished server to Node.SetBackend before either serves traffic.
type Fleet interface {
	// OwnsRenewal is consulted before the renewal scheduler spends a
	// credit on a zone: false defers the refetch, because another fleet
	// member owns the zone's renewal duty and its gossip will keep this
	// cache warm.
	OwnsRenewal(zone dnswire.Name) bool
	// GossipZone is called after a successful renewal refetch has been
	// ingested and extended, from the renewal loop's goroutine, so one
	// owner refetch warms the whole fleet.
	GossipZone(zone dnswire.Name)
	// PeerFetch is the last-resort fallback, consulted only after a
	// top-level resolution has failed every live, quarantined and stale
	// path: a peer's cached answer, or nil.
	PeerFetch(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) *dnswire.Message
}

// Config is the caching server's settings, declared once. The pipeline
// reads the mechanism's; the policy settings (RefreshTTL, Renewal,
// MaxTTL, NegativeTTL, ServeStale, OnGap, OnCacheChange) are read by the
// owning server in internal/core, which builds the cache from them.
type Config struct {
	// Transport carries queries to authoritative servers. Required.
	Transport transport.Transport
	// Clock supplies time; defaults to the wall clock.
	Clock simclock.Clock
	// RootHints are the hard-coded root servers every caching server
	// knows (§2). Required.
	RootHints []ServerRef

	// RefreshTTL enables the paper's TTL-refresh scheme.
	RefreshTTL bool
	// Renewal enables credit-based TTL renewal with the given policy;
	// nil disables renewal.
	Renewal RenewalPolicy
	// MaxTTL clamps cached TTLs; defaults to 7 days (§6: caching servers
	// do not accept arbitrarily large TTL values, which also bounds how
	// long a reclaimed delegation can linger).
	MaxTTL time.Duration
	// NegativeTTL caches NXDOMAIN/NODATA outcomes for this long; zero
	// disables negative caching (the paper's simulations ignore it).
	NegativeTTL time.Duration
	// ServeStale retains expired records for this long and serves them as
	// a last resort when resolution fails — the Ballani & Francis
	// HotNets'06 baseline from the paper's related work (§7), ancestor of
	// RFC 8767. Zero disables it.
	ServeStale time.Duration
	// Prefetch re-fetches a cached answer when a query hits it within
	// the last tenth of its TTL — unbound's prefetch behaviour, the other
	// modern cousin of the paper's renewal scheme (data records instead
	// of IRRs).
	Prefetch bool
	// AsyncPrefetch moves prefetch refetches off the client's critical
	// path onto a bounded background worker pool — what a live server
	// wants. Leave false for the deterministic inline behaviour the
	// simulator requires.
	AsyncPrefetch bool

	// OnGap observes IRR expiry-to-reuse gaps (Fig. 3).
	OnGap cache.GapFunc
	// OnCacheChange observes committed cache mutations (see
	// cache.Config.OnChange); the persistence journal hangs off it. Nil in
	// the simulator, which never persists.
	OnCacheChange cache.ChangeFunc

	// TrustAnchors are trusted DNSKEY RRs (normally the root zone's).
	// When there are any, answers from signed zones are verified against
	// the DS→DNSKEY chain rooted at them (§6: DNSSEC's DS and DNSKEY sets
	// are infrastructure records and flow through the same cache); none
	// leaves validation off.
	TrustAnchors []dnswire.RR

	// ParentRecheckInterval forces a query to a zone's parent when the
	// cached delegation has not been confirmed by the parent for this
	// long, so reclaimed delegations surface even under indefinite
	// refresh/renewal (§6 "Deployment Issues"; the paper suggests 7
	// days). Zero disables the recheck.
	ParentRecheckInterval time.Duration

	// AddrMapper converts a name server's address record into a transport
	// address. The default uses the bare IP string (the simulator's
	// convention); live deployments typically append ":53".
	AddrMapper func(addr netip.Addr) transport.Addr

	// Upstream tunes the robustness layer shared by the query, renewal,
	// and prefetch paths (RTT-aware server selection, adaptive per-attempt
	// timeouts, failure quarantine, retry budget). The zero value enables
	// it with defaults.
	Upstream UpstreamConfig

	// TraceSink receives a summary of every finished per-query trace.
	// Nil disables tracing entirely: NewTrace returns nil and the pipeline
	// does no per-query timing work; the simulator never sets it, keeping
	// its runs deterministic and overhead-free.
	TraceSink Sink

	// Fleet joins the server to a cooperative resolver mesh. Nil, the
	// default and always so in the simulator's solo runs, renews
	// everything locally and never asks a peer.
	Fleet Fleet
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
	// from it may be kept on it (cache.Entry.SetReply).
	Entry *cache.Entry
}

// ErrResolutionFailed reports that every reachable path to the answer was
// exhausted (the paper's "failed query").
var ErrResolutionFailed = errors.New("resolve: resolution failed")

// StaleServeTTL is the TTL stamped on stale answers (RFC 8767 recommends
// a short value so clients re-try soon).
const StaleServeTTL = 30

// What one piece of work may cost: every limit DESIGN §10 derives its
// bounds from, declared here and nowhere else (TestDesignLimitsMatchCode
// holds that section to these values).
const (
	// FrontendTimeout bounds how long a stub query served over a real
	// transport waits for its answer.
	FrontendTimeout = 5 * time.Second
	// flightTimeout, renewalTimeout and prefetchTimeout are how long one
	// coalesced flight, one renewal refetch and one background prefetch
	// may run: their Work's end in time, from Begin (workTime).
	flightTimeout   = 30 * time.Second
	renewalTimeout  = 30 * time.Second
	prefetchTimeout = 10 * time.Second
	// maxGlueFetches caps the out-of-bailiwick name-server address
	// resolutions one piece of work may trigger, across sibling NS names
	// as well as nesting — the NXNSAttack bound (maxGlueDepth alone only
	// limits nesting, so a delegation fanning out to dozens of
	// unresolvable NS names could still multiply upstream traffic). It has
	// no off switch.
	maxGlueFetches = 16
	// maxGlueDepth bounds nested resolutions of out-of-bailiwick
	// name-server addresses.
	maxGlueDepth = 4
	// maxReferrals bounds one resolution's downward steps.
	maxReferrals = 24
	// maxCNAME bounds CNAME chain chasing: a chain is followed for at
	// most this many hops.
	maxCNAME = 8
	// maxChainDepth bounds DS→DNSKEY chain walks.
	maxChainDepth = 8
)

// workTime is each kind of work's time, from Begin to its end.
var workTime = [numKinds]time.Duration{KindResolve: flightTimeout, KindRenewal: renewalTimeout, KindPrefetch: prefetchTimeout}

// Resolver runs the resolution pipeline over a shared cache and one fetch
// engine. It is safe for concurrent use: the cache is sharded internally,
// every other piece of state sits behind its own leaf mutex, and no lock
// is ever held across a Transport.Exchange round-trip.
type Resolver struct {
	cfg    Config
	cache  *cache.Cache
	hooks  Hooks
	engine *Engine
	// roots are RootHints' addresses, where every iteration without a
	// cached delegation starts.
	roots []transport.Addr

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

// New builds a Resolver from cfg over c, the cache the caller owns and
// built from cfg's policy settings (its KeepStale turns on serve-stale,
// its NegativeTTL negative caching), reporting pipeline events to hooks.
func New(cfg Config, c *cache.Cache, hooks Hooks) (*Resolver, error) {
	if cfg.Transport == nil {
		return nil, errors.New("resolve: Config.Transport is required")
	}
	if len(cfg.RootHints) == 0 {
		return nil, errors.New("resolve: Config.RootHints is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.AddrMapper == nil {
		cfg.AddrMapper = func(a netip.Addr) transport.Addr { return transport.Addr(a.String()) }
	}
	r := &Resolver{
		cfg:        cfg,
		cache:      c,
		hooks:      hooks,
		parentSeen: make(map[dnswire.Name]time.Time),
		counters:   metrics.NewSet[Counters](),
	}
	for _, h := range cfg.RootHints {
		r.roots = append(r.roots, h.Addr)
	}
	eng, err := newEngine(cfg, r.counters)
	if err != nil {
		return nil, err
	}
	r.engine = eng
	if len(cfg.TrustAnchors) > 0 {
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
