// Package transport abstracts how DNS messages travel between a resolver
// and authoritative servers. The same resolver code runs over the real
// network (UDP) in production and over an in-memory deterministic network
// (package simnet) in trace-driven simulation.
package transport

import (
	"context"
	"errors"
	"net/netip"
	"time"

	"resilientdns/internal/dnswire"
)

// Addr identifies a DNS server endpoint. Over UDP it is "host:port"; in
// the simulated network it is the server's synthetic IP address.
type Addr string

// ErrTimeout reports that a server did not answer within the deadline.
// Implementations wrap it so callers can match with errors.Is.
var ErrTimeout = errors.New("transport: query timed out")

// ErrServerUnreachable reports that the server could not be contacted at
// all (simulated blackout or connection refusal).
var ErrServerUnreachable = errors.New("transport: server unreachable")

// Transport sends one query to one server and returns its response.
//
// Implementations treat a context deadline as the per-attempt deadline:
// callers that maintain per-server RTT estimates (the upstream layer in
// internal/core) derive an attempt timeout and pass it down via
// context.WithTimeout, and the transport honours whichever of that
// deadline and its own default timeout comes first.
type Transport interface {
	Exchange(ctx context.Context, server Addr, query *dnswire.Message) (*dnswire.Message, error)
}

// Exchanger adapts a function to the Transport interface. It is the hook
// for wrapping a Transport with per-attempt policy — deadlines, response
// validation, fault injection in tests — without the underlying transport
// knowing:
//
//	inner := &transport.UDP{}
//	tr := transport.Exchanger(func(ctx context.Context, s transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
//		ctx, cancel := context.WithTimeout(ctx, perAttempt)
//		defer cancel()
//		return inner.Exchange(ctx, s, q)
//	})
type Exchanger func(ctx context.Context, server Addr, query *dnswire.Message) (*dnswire.Message, error)

// Exchange implements Transport.
func (f Exchanger) Exchange(ctx context.Context, server Addr, query *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, server, query)
}

// Handler answers DNS queries; authoritative server engines implement it.
type Handler interface {
	HandleQuery(q *dnswire.Message) *dnswire.Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(q *dnswire.Message) *dnswire.Message

// HandleQuery implements Handler.
func (f HandlerFunc) HandleQuery(q *dnswire.Message) *dnswire.Message { return f(q) }

// InlineHandler is a Handler that can settle some queries without
// blocking — a cache hit, a refusal, a rate-limit verdict. The UDP server
// offers it every query on the read loop, before a goroutine is spent:
// done means the query is settled and the loop sends packed, when set,
// as it is, or else resp (nil resp: drop); !done means HandleQuery must
// run, on a handler goroutine, and whatever the inline entry decided
// about the client (admission) is not decided again there. It is the
// only entry that sees the source address: per-client policy (the
// guard's rate limiter) lives here, and TCP, which calls HandleQuery
// alone, is unguarded by construction.
//
// A plain query (dnswire.QueryKey) arrives with its Key and without its
// Msg, so a handler that can answer it from bytes it packed before never
// unpacks it; packed is only ever returned for such a query, and must be
// a complete reply of at most dnswire.MaxUDPPayload bytes, which every
// client's limit admits. buf is the read loop's buffer, which Wire
// aliases: a handler may pack into it once it no longer reads Wire.
//
// HandleInline must not block: it runs on a read loop, and while it runs
// that loop reads nothing. It may take a lock no holder blocks under
// (the cache and memo shard read locks) and finish a trace, so a trace
// sink under an InlineHandler may buffer in memory but must not wait on
// I/O.
type InlineHandler interface {
	Handler
	HandleInline(q *Query, buf []byte) (packed []byte, resp *dnswire.Message, done bool)
}

// Query is one datagram a UDP read loop offers its InlineHandler.
type Query struct {
	// Wire is the datagram as read.
	Wire []byte
	// Key is dnswire.QueryKey's key, and ID the query's ID, when the query
	// is plain; Key is nil otherwise.
	Key []byte
	ID  uint16
	// Msg is the unpacked query: set by the read loop when Key is nil, and
	// by Message on first use otherwise.
	Msg  *dnswire.Message
	From netip.AddrPort
}

// Message returns the unpacked query, unpacking Wire on first use. It
// cannot fail for a query whose Key is set.
func (q *Query) Message() (*dnswire.Message, error) {
	if q.Msg == nil {
		m, err := dnswire.Unpack(q.Wire)
		if err != nil {
			return nil, err
		}
		q.Msg = m
	}
	return q.Msg, nil
}

// listenerBackoff pauses a serve loop after a listener error that is not
// net.ErrClosed and returns the pause taken: 5 ms, doubling from prev up
// to 1 s (net/http's accept back-off). Such errors are transient — EMFILE
// or ENOBUFS under the very flood this resolver exists to survive — so
// the loop must keep serving, but without spinning while they persist.
func listenerBackoff(prev time.Duration) time.Duration {
	d := 2 * prev
	if d == 0 {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	time.Sleep(d)
	return d
}

// Pipe is a Transport that delivers queries directly to in-process
// handlers, with no latency or failures. It is intended for unit tests.
type Pipe struct {
	Handlers map[Addr]Handler
}

// Exchange implements Transport.
func (p *Pipe) Exchange(_ context.Context, server Addr, query *dnswire.Message) (*dnswire.Message, error) {
	h, ok := p.Handlers[server]
	if !ok {
		return nil, ErrServerUnreachable
	}
	resp := h.HandleQuery(query)
	if resp == nil {
		return nil, ErrTimeout
	}
	return resp, nil
}
