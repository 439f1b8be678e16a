package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"runtime"
	"sync"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
)

// UDP is a Transport over real UDP sockets. The zero value is ready to
// use; Timeout defaults to 3 seconds when unset.
type UDP struct {
	// Timeout caps each exchange; a context deadline tightens it further
	// (the earlier of the two wins) but never extends it.
	Timeout time.Duration
}

// Exchange implements Transport: it sends the query over a fresh UDP
// socket and waits for a response with a matching ID that echoes the
// question. Datagrams that fail either check are discarded and the read
// continues until the deadline — an off-path spoofer must land both the
// 16-bit ID and the exact question before the genuine reply arrives.
//
// While it waits, an exchange holds its socket and its deadline and, on
// Linux, no buffer: the query's scratch goes back once the write returns,
// and a read buffer is leased only while the socket has datagrams queued
// (readReply).
func (u *UDP) Exchange(ctx context.Context, server Addr, query *dnswire.Message) (*dnswire.Message, error) {
	timeout := u.Timeout
	if timeout == 0 {
		timeout = 3 * time.Second
	}
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}

	// server is an IP:port literal (what the resolver's address mapper
	// produces), so every exchange gets its own kernel-chosen source port
	// (RFC 5452) and nothing resolves a name here.
	ap, err := ParseAddr(string(server))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrServerUnreachable, err)
	}
	resp, err := exchangeUDP(ap, query, deadline)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, fmt.Errorf("%w: %s", ErrTimeout, server)
		}
		return nil, err
	}
	return resp, nil
}

// writeQuery packs query into pooled scratch and sends it; the scratch
// goes back as soon as the write returns, since the kernel has the bytes.
func writeQuery(sock io.Writer, query *dnswire.Message) error {
	bp := getBuf()
	defer putBuf(bp)
	wire, err := query.AppendPack((*bp)[:0])
	if err != nil {
		return err
	}
	if _, err := sock.Write(wire); err != nil {
		return fmt.Errorf("%w: %v", ErrServerUnreachable, err)
	}
	return nil
}

// answers reports whether a datagram is query's reply: it parses, carries
// query's ID and echoes its question. Anything else — a garbled datagram,
// a stale reply to an earlier query, an ID collision or an off-path spoof
// — is discarded and the wait goes on.
func answers(query *dnswire.Message, datagram []byte) (*dnswire.Message, bool) {
	m, err := dnswire.Unpack(datagram)
	if err != nil || m.ID != query.ID || !dnswire.EchoesQuestion(query, m) {
		return nil, false
	}
	return m, true
}

// DefaultMaxInflight bounds concurrently handled queries when a server's
// MaxInflight is zero.
const DefaultMaxInflight = 1024

// UDPServer serves DNS queries over a UDP socket using a Handler. It runs
// one read loop per P on the one socket. Each loop offers every query to
// the Handler's inline entry, when it is an InlineHandler, and answers
// what that settles from the loop itself; anything else is handled on a
// goroutine of its own, a warm one (Workers) when one is idle, bounded by
// MaxInflight, so one slow recursive resolution never blocks a read loop.
// A handler without the inline entry settles nothing inline. With one, a
// plain query (dnswire.QueryKey) reaches it unparsed; every other datagram
// is unpacked first, and one that does not parse is answered FORMERR, or
// dropped when it claims to be a response, before any handler sees it.
type UDPServer struct {
	Handler Handler
	// MaxInflight bounds the number of queries being handled at once on
	// handler goroutines. Defaults to DefaultMaxInflight.
	MaxInflight int
	// Overload, when set, is consulted — synchronously, on the read loop
	// — for queries the inline entry did not settle that arrive while all
	// MaxInflight slots are busy, instead of blocking the read loop behind
	// the slowest resolution (head-of-line blocking). It returns the
	// degraded-mode response to send, or nil to drop the query. It must
	// not block. When nil, saturated-arrival queries are dropped and
	// counted.
	Overload func(q *dnswire.Message) *dnswire.Message
	// Counters receives drop/FORMERR accounting; optional. When Overload
	// is set it owns the shed accounting and Counters.Shed is not bumped
	// here (a single source for each count).
	Counters *metrics.GuardCounters

	mu   sync.Mutex
	conn udpConn
	wg   sync.WaitGroup // read loops and handlers
	sem  chan struct{}
	// workers runs the handlers on warm goroutines.
	workers Workers
}

// udpConn is what the server uses of its socket (*UDPConn): the AddrPort
// calls, which allocate no address per datagram.
type udpConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	Close() error
}

// Listen binds the server to addr (an IP:port literal, e.g.
// "127.0.0.1:5300", or ":port" for every address) and starts serving in
// background goroutines. It returns the bound address, which is useful
// when addr requests an ephemeral port.
func (s *UDPServer) Listen(addr string) (string, error) {
	if s.Handler == nil {
		return "", errors.New("transport: UDPServer without Handler")
	}
	ap, err := ParseAddr(addr)
	if err != nil {
		return "", err
	}
	conn, err := ListenUDP(ap)
	if err != nil {
		return "", err
	}
	s.start(conn)
	return conn.LocalAddr().String(), nil
}

// start serves conn: one read loop per P. Queries settled inline are
// answered on the loop that read them, so the loops are what spreads them
// over cores.
func (s *UDPServer) start(conn udpConn) {
	inflight := s.MaxInflight
	if inflight <= 0 {
		inflight = DefaultMaxInflight
	}
	s.mu.Lock()
	s.conn = conn
	s.sem = make(chan struct{}, inflight)
	s.mu.Unlock()
	for i := runtime.GOMAXPROCS(0); i > 0; i-- {
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *UDPServer) serve(conn udpConn) {
	defer s.wg.Done()
	sem := s.sem
	inline, _ := s.Handler.(InlineHandler)
	// Per-read-loop buffer, leased for the loop's lifetime and reused
	// for every packet (returned when the listener closes). A response
	// sent from the loop is packed into it too: by then the query has
	// been unpacked, or answered without unpacking, and the Message owns
	// all its data (dnswire.Unpack copies the wire once and never aliases
	// the read buffer).
	bp := getBuf()
	defer putBuf(bp)
	buf := (*bp)[:readBufSize]
	// The probe's key space, which every key fits, and the one Query the
	// loop hands its inline entry, both reused for every packet.
	key := make([]byte, 0, dnswire.MaxNameWireLen+5)
	var q Query
	var backoff time.Duration
	for {
		n, from, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return
			}
			backoff = listenerBackoff(backoff)
			continue
		}
		backoff = 0
		q = Query{Wire: buf[:n], From: from}
		plain := false
		if inline != nil {
			q.Key, q.ID, plain = dnswire.QueryKey(q.Wire, key[:0])
		}
		if !plain {
			if q.Msg, err = dnswire.Unpack(q.Wire); err != nil {
				s.replyFormErr(conn, q.Wire, from)
				continue
			}
			if q.Msg.Flags.Response {
				continue // a response is never a query; never answer one
			}
		}
		if inline != nil {
			packed, resp, done := inline.HandleInline(&q, buf)
			if done {
				switch {
				case packed != nil:
					conn.WriteToUDPAddrPort(packed, from)
				case resp != nil:
					// A handler answers from the unpacked query, so this
					// unpacks nothing; the limit is the query's.
					if query, err := q.Message(); err == nil {
						writeResponse(conn, buf, query, resp, from)
					}
				}
				continue
			}
		}
		query, err := q.Message()
		if err != nil {
			continue // unreachable: a plain query always unpacks
		}
		select {
		case sem <- struct{}{}:
			s.wg.Add(1)
			h := handlings.Get().(*handling)
			*h = handling{s: s, conn: conn, query: query, from: from}
			s.workers.Go(h)
		default:
			// Every inflight slot is busy. Blocking here would stall the
			// read loop behind the slowest resolution; instead shed —
			// or hand the query to the overload hook for a degraded
			// (cache-only) answer.
			if s.Overload != nil {
				if resp := s.Overload(query); resp != nil {
					writeResponse(conn, buf, query, resp, from)
				}
			} else if s.Counters != nil {
				metrics.Inc(&s.Counters.Shed)
			}
		}
	}
}

// handling is one query handed to a handler goroutine, with what its
// reply needs; handlings recycles them, so handing a query over allocates
// nothing.
type handling struct {
	s     *UDPServer
	conn  udpConn
	query *dnswire.Message
	from  netip.AddrPort
}

var handlings = sync.Pool{New: func() any { return new(handling) }}

// Run handles the query in one of the server's inflight slots, answers
// it, and gives the slot back.
func (h *handling) Run() {
	s, conn, query, from := h.s, h.conn, h.query, h.from
	*h = handling{}
	handlings.Put(h)
	defer s.wg.Done()
	defer func() { <-s.sem }()
	if resp := s.Handler.HandleQuery(query); resp != nil {
		bp := getBuf()
		defer putBuf(bp)
		writeResponse(conn, *bp, query, resp, from)
	}
}

// replyFormErr answers a packet that failed to parse, packing the reply
// over it (a header, which is all the reply is, fits where one was read).
// If even the fixed header is unreadable there is nothing to echo, and a
// packet claiming to be a response must never be answered (a reply loop
// between two servers otherwise ping-pongs forever) — both stay silently
// dropped. Otherwise the client gets FORMERR so it can tell a broken
// query from a dead server, and the counter keeps garbage floods visible.
func (s *UDPServer) replyFormErr(conn udpConn, pkt []byte, from netip.AddrPort) {
	h, err := dnswire.UnpackHeader(pkt)
	if err != nil || h.Flags.Response {
		return
	}
	if s.Counters != nil {
		metrics.Inc(&s.Counters.FormErr)
	}
	resp := &dnswire.Message{
		ID:     h.ID,
		Opcode: h.Opcode,
		Flags:  dnswire.Flags{Response: true},
		RCode:  dnswire.RCodeFormErr,
	}
	wire, err := resp.AppendPack(pkt[:0])
	if err != nil {
		return
	}
	conn.WriteToUDPAddrPort(wire, from)
}

// writeResponse packs resp into scratch — the read loop's own buffer, or
// a pooled one on a handler goroutine — applies the UDP payload limit,
// and sends. WriteToUDPAddrPort is safe for concurrent use, so responders
// never coordinate.
//
// A larger response is truncated (TC bit set, sections dropped). The
// limit is the classic 512 for a plain client and min(max(adv, 512),
// DefaultEDNS0PayloadSize) for an EDNS0 one, per RFC 6891 §6.2.5: a
// datagram must never exceed what the client advertised — a client
// saying 1232 gets truncation at 1232 even though the server could emit
// 4096, its own advertisement — while an advertisement below 512 is
// raised to the classic floor.
func writeResponse(conn udpConn, scratch []byte, query, resp *dnswire.Message, from netip.AddrPort) {
	wire, err := resp.AppendPack(scratch[:0])
	if err != nil {
		return
	}
	limit := dnswire.MaxUDPPayload
	if adv, ok := query.EDNS0PayloadSize(); ok {
		limit = min(max(int(adv), dnswire.MaxUDPPayload), dnswire.DefaultEDNS0PayloadSize)
	}
	if len(wire) > limit {
		wire, err = resp.TruncatedCopy().AppendPack(wire[:0])
		if err != nil {
			return
		}
	}
	conn.WriteToUDPAddrPort(wire, from)
}

// Close stops the server and waits for its goroutines to exit.
func (s *UDPServer) Close() error {
	s.mu.Lock()
	conn := s.conn
	s.conn = nil
	s.mu.Unlock()
	if conn == nil {
		return nil
	}
	err := conn.Close()
	s.wg.Wait()
	s.workers.Close()
	return err
}
