package resolve

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

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
	// The query, its question and its OPT record in one allocation:
	// NewQuery's message, with SetEDNS0 appending into opt.
	fq := &struct {
		msg      dnswire.Message
		question [1]dnswire.Question
		opt      [1]dnswire.RR
	}{}
	fq.question[0] = dnswire.Question{Name: qname, Type: qtype, Class: dnswire.ClassIN}
	q := &fq.msg
	q.ID, q.Question, q.Additional = e.nextQID(), fq.question[:], fq.opt[:0]
	q.SetEDNS0(dnswire.DefaultEDNS0PayloadSize)
	return e.exchangeFailover(ctx, tr, servers, q)
}

// exchangeFailover tries each of servers in the upstream layer's
// preferred order (healthy by ascending SRTT, then quarantined) until one
// returns a validated response. RTT estimates, quarantine state, and the
// retry budget are shared across every fetch path. A cancelled client
// must not keep burning upstream attempts, so the loop re-checks ctx and
// the retry budget's end in time before every attempt.
func (e *Engine) exchangeFailover(ctx context.Context, tr *Trace, servers []transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	now := e.clock.Now()
	ordered, skipped := e.upstream.order(servers, now)
	if skipped > 0 {
		metrics.Add(&e.counters.QuarantineSkips, uint64(skipped))
	}
	b := budgetOf(ctx, retryKey)
	var lastErr error
	for i, addr := range ordered {
		if i > 0 {
			now = e.clock.Now()
		}
		if err := halted(ctx, now); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return nil, lastErr
		}
		if !b.take() {
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
		resp, err := e.exchange(ctx, tr, addr, q, now, b.clip(now, e.upstream.attemptTimeout(addr)))
		if err != nil {
			metrics.Inc(&e.counters.QueriesOutFailed)
			lastErr = err
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// exchange performs one upstream attempt against addr, starting at start:
// it applies the per-attempt deadline, timeout from then (the server's
// RTT history cut to the retry budget's end in time), validates the
// response (ID and question echo), and folds the outcome back into the
// server's selection state and the trace. The attempt's context keeps
// ctx's values but not its cancellation: work is cancelled between
// attempts (halted), never mid-exchange, so a flight its last waiter
// abandons neither blames the server it was asking nor throws away an
// answer on its way. No child context is registered with ctx either.
func (e *Engine) exchange(ctx context.Context, tr *Trace, addr transport.Addr, q *dnswire.Message, start time.Time, timeout time.Duration) (*dnswire.Message, error) {
	actx, cancel := context.WithTimeout(context.WithoutCancel(ctx), timeout)
	defer cancel()
	resp, err := e.transport.Exchange(actx, addr, q) //dnslint:ignore onepath the fetch engine is the one sanctioned exchange path
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
