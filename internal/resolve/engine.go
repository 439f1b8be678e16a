package resolve

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
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
	fq := fetchQueries.Get().(*fetchQuery)
	defer fetchQueries.Put(fq)
	fq.question[0] = dnswire.Question{Name: qname, Type: qtype, Class: dnswire.ClassIN}
	q := &fq.msg
	*q = dnswire.Message{ID: e.nextQID(), Question: fq.question[:], Additional: fq.opt[:0]}
	q.SetEDNS0(dnswire.DefaultEDNS0PayloadSize)
	return e.exchangeFailover(ctx, fq, tr, servers)
}

// fetchQuery is one fetch's query, its question, its OPT record, the
// context each attempt runs under and the servers in the order they are
// tried, in one object: NewQuery's message, with SetEDNS0 appending into
// opt, and a zone's servers, which are few, ordered into ordered.
// fetchQueries recycles them, because no
// Transport keeps the query, or aliases any part of it, past Exchange's
// return: UDP and TCP pack it and decode the reply from the socket's
// bytes, Pipe hands it to a handler whose reply copies the question
// (Message.Reply), and simnet packs it and hands the handler a decoded
// copy. A mesh peer is asked with a request of its own, never the query.
type fetchQuery struct {
	msg      dnswire.Message
	question [1]dnswire.Question
	opt      [1]dnswire.RR
	attempt  attemptCtx
	ordered  [16]transport.Addr
}

var fetchQueries = sync.Pool{New: func() any { return new(fetchQuery) }}

// exchangeFailover tries each of servers in the upstream layer's
// preferred order (healthy by ascending SRTT, then quarantined) until one
// returns a validated response. RTT estimates, quarantine state, and the
// work's attempts are shared across every fetch path. A cancelled client
// must not keep burning upstream attempts, so the loop re-checks ctx and
// the Work's end in time before every attempt.
func (e *Engine) exchangeFailover(ctx context.Context, fq *fetchQuery, tr *Trace, servers []transport.Addr) (*dnswire.Message, error) {
	q, actx := &fq.msg, &fq.attempt
	w := workOf(ctx)
	now := w.now(e.clock)
	ordered, skipped := e.upstream.order(fq.ordered[:0], servers, now)
	if skipped > 0 {
		metrics.Add(&e.counters.QuarantineSkips, uint64(skipped))
	}
	var lastErr error
	for i, addr := range ordered {
		if i > 0 {
			now = w.now(e.clock) // the last attempt's end
		}
		if err := halted(ctx, now); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return nil, lastErr
		}
		if !w.takeAttempt() {
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
		resp, err := e.exchange(ctx, w, actx, tr, addr, q, now, w.clip(now, e.upstream.attemptTimeout(addr)))
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
// RTT history cut to the Work's end in time), validates the
// response (ID and question echo), and folds the outcome back into the
// server's selection state, the trace and w's now: the clock's one
// reading per attempt. The attempt runs under actx,
// which keeps ctx's values but not its cancellation: work is cancelled
// between attempts (halted), never mid-exchange, so a flight its last
// waiter abandons neither blames the server it was asking nor throws away
// an answer on its way. No child context is registered with ctx either.
func (e *Engine) exchange(ctx context.Context, w *Work, actx *attemptCtx, tr *Trace, addr transport.Addr, q *dnswire.Message, start time.Time, timeout time.Duration) (*dnswire.Message, error) {
	actx.begin(ctx, time.Now().Add(timeout))
	defer actx.end()
	resp, err := e.transport.Exchange(actx, addr, q) //dnslint:ignore onepath the fetch engine is the one sanctioned exchange path
	if err == nil && resp.ID != q.ID {
		err = fmt.Errorf("resolve: mismatched response ID from %s", addr)
	}
	if err == nil && !dnswire.EchoesQuestion(q, resp) {
		err = fmt.Errorf("resolve: response from %s does not echo the question", addr)
	}
	end := e.clock.Now()
	w.step(end)
	tr.RecordAttempt(addr, end.Sub(start), err)
	if err != nil {
		e.upstream.observeFailure(addr, end)
		return nil, err
	}
	e.upstream.observeSuccess(addr, end.Sub(start))
	return resp, nil
}

// attemptCtx is the context one upstream attempt runs under: the flight's
// values and the attempt's deadline, without the flight's cancellation.
// Unlike context.WithTimeout it arms no timer of its own beside the
// socket's deadline, which is all an exchange reads: Done makes its
// channel and timer only for a transport that asks for one. It lives
// with the fetch's query and serves each of its attempts in turn, so a
// transport must not keep it, as it must not keep the query, past
// Exchange's return.
type attemptCtx struct {
	values   context.Context
	deadline time.Time

	mu    sync.Mutex
	done  chan struct{}
	timer *time.Timer
	err   error
}

// begin readies c for an attempt under parent's values until deadline.
func (c *attemptCtx) begin(parent context.Context, deadline time.Time) {
	c.mu.Lock()
	c.values, c.deadline, c.done, c.timer, c.err = parent, deadline, nil, nil, nil
	c.mu.Unlock()
}

// end finishes the attempt as cancel finishes a WithTimeout context.
func (c *attemptCtx) end() {
	c.mu.Lock()
	if c.timer != nil {
		c.timer.Stop()
	}
	c.expire(context.Canceled)
	c.mu.Unlock()
}

// expire records err as the reason, first one wins, and closes Done's
// channel if it was made. Called with mu held.
func (c *attemptCtx) expire(err error) {
	if c.err == nil {
		c.err = err
		if c.done != nil {
			close(c.done)
		}
	}
}

func (c *attemptCtx) Deadline() (time.Time, bool) { return c.deadline, true }

func (c *attemptCtx) Value(key any) any { return c.values.Value(key) }

func (c *attemptCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		} else {
			done := c.done
			c.timer = time.AfterFunc(time.Until(c.deadline), func() {
				c.mu.Lock()
				if c.done == done { // not a later attempt's
					c.expire(context.DeadlineExceeded)
				}
				c.mu.Unlock()
			})
		}
	}
	return c.done
}

func (c *attemptCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil && !time.Now().Before(c.deadline) {
		c.expire(context.DeadlineExceeded)
	}
	return c.err
}
