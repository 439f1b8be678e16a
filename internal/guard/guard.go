// Package guard is the client-facing overload and abuse protection layer
// sitting between the transport servers and the resolution pipeline. It
// keeps the paper's cache path answering under client floods with two
// mechanisms:
//
//   - a sharded, memory-bounded per-client token-bucket rate limiter with
//     RRL-style slip: every Nth rate-limited UDP query is answered with a
//     minimal TC=1 reply instead of dropped, so a legitimate client
//     sharing a hot (NATed or spoofed) address can retry over TCP;
//   - overload admission control: when the UDP server's inflight capacity
//     is saturated, queries degrade to cache/stale-only answering — the
//     paper's long-TTL and serve-stale machinery becomes the degraded
//     mode — instead of blocking the read loop or being dropped.
//
// The guard never talks upstream itself (the onepath analyzer enforces
// this) and takes time only from a simclock.Clock (wallclock analyzer),
// so it composes with the deterministic simulator. TCP is deliberately
// not rate-limited here: slip exists precisely to push clients to TCP,
// where connection backpressure bounds load and source addresses cannot
// be spoofed.
package guard

import (
	"net"
	"net/netip"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// Backend is the query surface the guard protects: the caching server's
// frontend, with its normal and cache-only entry points.
type Backend interface {
	HandleQuery(q *dnswire.Message) *dnswire.Message
	HandleQueryCacheOnly(q *dnswire.Message) *dnswire.Message
}

// Config parameterises a Guard.
type Config struct {
	// ClientRPS is each client address's sustained query budget per
	// second; 0 or negative disables per-client rate limiting. The bucket
	// holds max(2×ClientRPS, 1) tokens: two seconds of budget as burst.
	ClientRPS float64
	// Slip answers every Nth rate-limited query with a minimal TC=1
	// reply instead of dropping it (RRL slip). 0 disables slipping; 1
	// slips every rate-limited query.
	Slip int
	// MaxClients bounds the limiter's tracked client slots; the least
	// recently seen client is evicted at the bound. Default 65536.
	MaxClients int
	// CacheOnlyOnOverload serves queries arriving while inflight work is
	// saturated from cached data only (live, negative, then stale)
	// instead of dropping them.
	CacheOnlyOnOverload bool
	// Clock supplies time; defaults to the wall clock.
	Clock simclock.Clock
	// Counters receives the guard's decision counts; optional.
	Counters *metrics.GuardCounters
	// PeerExempt, when set, reports whether a source IP belongs to an
	// authenticated mesh peer. Peers bypass the per-client token bucket
	// entirely: a cooperating fleet member must never be rate-limited
	// or slipped a TC=1 mid-attack, and its query volume must not
	// pollute a bucket it may share with NATed clients.
	PeerExempt func(netip.Addr) bool
}

// Guard wraps a Backend with per-client rate limiting and overload
// degradation. It implements transport.InlineHandler. A query is charged
// to its client's bucket exactly once, by HandleInline, the one entry that
// sees a source; HandleQuery and HandleOverload, which a UDP server calls
// only for queries HandleInline has admitted, charge nothing.
type Guard struct {
	backend    Backend
	inline     transport.InlineHandler // nil when backend has no inline entry
	limiter    *limiter                // nil when rate limiting is off
	cacheOnly  bool
	counters   *metrics.GuardCounters
	clock      simclock.Clock
	peerExempt func(netip.Addr) bool
}

// New builds a Guard around backend.
func New(backend Backend, cfg Config) *Guard {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.Counters == nil {
		cfg.Counters = metrics.NewSet[metrics.GuardCounters]()
	}
	g := &Guard{
		backend:    backend,
		cacheOnly:  cfg.CacheOnlyOnOverload,
		counters:   cfg.Counters,
		clock:      cfg.Clock,
		peerExempt: cfg.PeerExempt,
	}
	g.inline, _ = backend.(transport.InlineHandler)
	if cfg.ClientRPS > 0 {
		g.limiter = newLimiter(cfg.ClientRPS, cfg.Slip, cfg.MaxClients, cfg.Counters)
	}
	return g
}

// HandleQuery serves a query that needs no admission here: one a UDP
// server's read loop has already put through HandleInline.
func (g *Guard) HandleQuery(q *dnswire.Message) *dnswire.Message {
	return g.backend.HandleQuery(q)
}

// HandleQueryFrom serves one query the way the UDP read loop does:
// HandleInline, then HandleQuery if the query is still open. A nil
// response means drop (send nothing). Only a *net.UDPAddr is charged to a
// bucket; any other source fails open. The serving path never calls it —
// the benchmark's in-process replay does. The query is offered unpacked
// and without a key, so the inline entry answers it with a Message.
func (g *Guard) HandleQueryFrom(q *dnswire.Message, from net.Addr) *dnswire.Message {
	query := transport.Query{Msg: q}
	if u, ok := from.(*net.UDPAddr); ok {
		query.From = u.AddrPort()
	}
	if _, resp, done := g.HandleInline(&query, nil); done {
		return resp
	}
	return g.HandleQuery(q)
}

// HandleInline is the read loop's entry: admission first, charged once, so
// a rate-limited datagram is dropped or slipped without ever costing a
// goroutine — and is never answered from the backend's memo — then the
// backend's inline entry. done=false means admitted and not yet
// answered: HandleQuery — or HandleOverload, when no handler slot is free
// — finishes the query without charging it again.
func (g *Guard) HandleInline(q *transport.Query, buf []byte) ([]byte, *dnswire.Message, bool) {
	// Ports are not identity: one abuser rotating source ports must land
	// in one bucket, and a v4-mapped source in its v4 client's.
	switch g.admit(q.From.Addr().Unmap()) {
	case decisionDrop:
		return nil, nil, true
	case decisionSlip:
		m, err := q.Message()
		if err != nil {
			return nil, nil, true
		}
		return nil, slipReply(m), true
	}
	if g.inline == nil {
		return nil, nil, false
	}
	return g.inline.HandleInline(q, buf)
}

// HandleOverload serves a query that HandleInline admitted but could not
// settle, arriving while inflight work was saturated: it is answered from
// cache only — never recursing, never dropping a cache hit — or shed when
// degraded answering is off. An abusive client gets no degraded service
// either: its queries ended at HandleInline. Called synchronously from
// the UDP read loop, so it must not block; the cache-only path takes no
// locks across I/O.
func (g *Guard) HandleOverload(q *dnswire.Message) *dnswire.Message {
	if !g.cacheOnly {
		metrics.Inc(&g.counters.Shed)
		return nil
	}
	metrics.Inc(&g.counters.CacheOnly)
	resp := g.backend.HandleQueryCacheOnly(q)
	if resp != nil && resp.RCode == dnswire.RCodeServFail && len(resp.Answer) == 0 {
		metrics.Inc(&g.counters.CacheOnlyMiss)
	}
	return resp
}

// admit runs the rate limiter for one query from addr (the zero Addr: no
// attributable source) and counts the verdict: decisionAllow lets the
// query proceed; decisionDrop and decisionSlip stop it, the latter with a
// minimal TC=1 reply pushing the client to TCP.
func (g *Guard) admit(addr netip.Addr) decision {
	if g.limiter == nil || !addr.IsValid() {
		// No limit, or no source to charge: fail open, the admission
		// control behind us still bounds total work.
		return decisionAllow
	}
	if g.peerExempt != nil && g.peerExempt(addr) {
		// A handshake-confirmed fleet peer: no bucket charged at all.
		metrics.Inc(&g.counters.PeerExempt)
		return decisionAllow
	}
	d := g.limiter.admit(addr, g.clock.Now())
	switch d {
	case decisionDrop:
		metrics.Inc(&g.counters.RateLimited)
	case decisionSlip:
		metrics.Inc(&g.counters.RateLimited)
		metrics.Inc(&g.counters.Slips)
	default:
		metrics.Inc(&g.counters.Allowed)
	}
	return d
}

// slipReply builds the minimal truncated reply for a slipped query: just
// the question with TC=1, inviting a retry over TCP (RRL slip).
func slipReply(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	resp.Flags.RecursionAvailable = true
	resp.Flags.Truncated = true
	return resp
}
