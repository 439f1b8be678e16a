package core

import (
	"context"
	"net/netip"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/resolve"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// ServerRef names one authoritative server endpoint.
type ServerRef struct {
	// Host is the server's DNS name (e.g. "a.root-servers.net.").
	Host dnswire.Name
	// Addr is where to reach it.
	Addr transport.Addr
}

// The resolution machinery lives in internal/resolve; core re-exports the
// pipeline's shared surface so existing callers (the simulator, the
// persistence layer, the binaries) keep one import.
type (
	// Result is a completed resolution.
	Result = resolve.Result
	// UpstreamConfig tunes the robustness layer shared by the query,
	// renewal, and prefetch paths.
	UpstreamConfig = resolve.UpstreamConfig
	// UpstreamServerState is one authoritative server's persisted
	// selection state: the RFC 6298 RTT estimate, the consecutive-failure
	// count, and the quarantine release time.
	UpstreamServerState = resolve.ServerState
)

// ErrResolutionFailed reports that every reachable path to the answer was
// exhausted (the paper's "failed query").
var ErrResolutionFailed = resolve.ErrResolutionFailed

// ErrBogus reports a DNSSEC validation failure: the zone chain is signed
// but the data does not verify.
var ErrBogus = resolve.ErrBogus

// staleServeTTL is the TTL stamped on stale answers (RFC 8767 recommends
// a short value so clients re-try soon).
const staleServeTTL = resolve.StaleServeTTL

// Config parameterises a CachingServer.
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
	// path onto a bounded background worker pool (see
	// resolve.Config.AsyncPrefetch). Leave false for the deterministic
	// inline behaviour the simulator requires.
	AsyncPrefetch bool

	// OnGap observes IRR expiry-to-reuse gaps (Fig. 3).
	OnGap cache.GapFunc

	// OnCacheChange observes committed cache mutations (see
	// cache.Config.OnChange); the persistence journal hangs off it. Nil in
	// the simulator, which never persists.
	OnCacheChange cache.ChangeFunc

	// ValidateDNSSEC verifies answers from signed zones against the
	// DS→DNSKEY chain rooted at TrustAnchors (§6: DNSSEC's DS and DNSKEY
	// sets are infrastructure records and flow through the same cache).
	ValidateDNSSEC bool
	// TrustAnchors are trusted DNSKEY RRs (normally the root zone's).
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

	// TraceSink receives a summary of every finished per-query trace
	// (see resolve.Sink). Nil disables tracing entirely; the simulator
	// never sets it, keeping its runs deterministic and overhead-free.
	TraceSink resolve.Sink

	// Fleet joins the server to a cooperative resolver mesh (see Fleet).
	// Nil, the default and always so in the simulator's solo runs, renews
	// everything locally and never asks a peer.
	Fleet Fleet
}

// Fleet is what a caching server asks of the mesh it is a member of;
// *mesh.Node satisfies it as it stands, so core does not import mesh.
// The node in turn needs the server as its Backend: build the node first
// without one, put it here, and hand the finished server to
// Node.SetBackend before either serves traffic.
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
	// resolution has failed every live and stale path (see
	// resolve.Hooks.PeerFetch): a peer's cached answer, or nil.
	PeerFetch(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) *dnswire.Message
}
