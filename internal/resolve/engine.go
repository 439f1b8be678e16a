package resolve

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// Engine is the unified fetch engine: the one place in the process that
// talks to authoritative servers. Every fetch — client-driven iteration,
// prefetch, renewal refetch, missing-glue resolution — goes through
// Fetch, so query-ID allocation, server selection, per-attempt timeouts,
// the retry budget, and response validation are owned by exactly one
// code path (the single-exchange-path invariant, enforced by the
// `onepath` dnslint analyzer).
type Engine struct {
	transport transport.Transport
	clock     simclock.Clock
	counters  *Counters
	// upstream holds the per-server selection state (RTT estimates,
	// quarantine); it has its own internal lock, taken only for short
	// state reads/updates and never across an exchange.
	upstream *upstream
	// qid is the outgoing query-ID counter: seeded from crypto/rand and
	// advanced atomically, so concurrent queries never share an ID and
	// the sequence does not restart at a guessable value.
	qid atomic.Uint32
}

// newEngine builds the fetch engine, seeding the query-ID sequence.
func newEngine(cfg Config, counters *Counters) (*Engine, error) {
	e := &Engine{
		transport: cfg.Transport,
		clock:     cfg.Clock,
		counters:  counters,
		upstream:  newUpstream(cfg.Upstream),
	}
	var seed [4]byte
	if _, err := crand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("resolve: seeding query IDs: %w", err)
	}
	e.qid.Store(binary.LittleEndian.Uint32(seed[:]))
	return e, nil
}

// nextQID returns a fresh 16-bit query ID.
func (e *Engine) nextQID() uint16 { return uint16(e.qid.Add(1)) }

// Fetch sends (qname, qtype) to servers through the failover loop and
// returns the first validated response. The query is built here — ID
// allocation and EDNS0 advertisement included — so callers never touch
// the wire layer directly. Every query advertises a 4096-byte UDP payload
// (RFC 6891), so a large referral or signed answer arrives in one
// datagram instead of a truncation and a TCP retry.
func (e *Engine) Fetch(ctx context.Context, tr *Trace, servers []transport.Addr, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	if len(servers) == 0 {
		return nil, transport.ErrServerUnreachable
	}
	q := dnswire.NewQuery(e.nextQID(), qname, qtype)
	q.SetEDNS0(dnswire.DefaultEDNS0PayloadSize)
	return e.exchangeFailover(ctx, tr, servers, q)
}

// exchangeFailover tries each of servers in the upstream layer's
// preferred order (healthy by ascending SRTT, then quarantined) until one
// returns a validated response. RTT estimates, quarantine state, and the
// retry budget are shared across every fetch path. A cancelled client
// must not keep burning upstream attempts, so the loop re-checks ctx
// before every attempt.
func (e *Engine) exchangeFailover(ctx context.Context, tr *Trace, servers []transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	ordered, skipped := e.upstream.order(servers, e.clock.Now())
	if skipped > 0 {
		metrics.Add(&e.counters.QuarantineSkips, uint64(skipped))
	}
	var lastErr error
	for i, addr := range ordered {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return nil, lastErr
		}
		if !take(ctx, retryKey) {
			metrics.Inc(&e.counters.BudgetExhausted)
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last attempt: %v)", errBudgetExhausted, lastErr)
			}
			return nil, errBudgetExhausted
		}
		if i > 0 {
			metrics.Inc(&e.counters.Retries)
		}
		metrics.Inc(&e.counters.QueriesOut)
		resp, err := e.exchange(ctx, tr, addr, q)
		if err != nil {
			metrics.Inc(&e.counters.QueriesOutFailed)
			lastErr = err
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// exchange performs one upstream attempt against addr: it applies the
// per-attempt deadline derived from the server's RTT history, validates
// the response (ID and question echo), and folds the outcome back into
// the server's selection state and the trace.
func (e *Engine) exchange(ctx context.Context, tr *Trace, addr transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	ctx, cancel := context.WithTimeout(ctx, e.upstream.attemptTimeout(addr))
	defer cancel()
	start := e.clock.Now()
	resp, err := e.transport.Exchange(ctx, addr, q) //dnslint:ignore onepath the fetch engine is the one sanctioned exchange path
	if err == nil && resp.ID != q.ID {
		err = fmt.Errorf("resolve: mismatched response ID from %s", addr)
	}
	if err == nil && !dnswire.EchoesQuestion(q, resp) {
		err = fmt.Errorf("resolve: response from %s does not echo the question", addr)
	}
	end := e.clock.Now()
	tr.RecordAttempt(addr, end.Sub(start), err)
	if err != nil {
		e.upstream.observeFailure(addr, end)
		return nil, err
	}
	e.upstream.observeSuccess(addr, end.Sub(start))
	return resp, nil
}
