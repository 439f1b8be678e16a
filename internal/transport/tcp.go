package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"resilientdns/internal/dnswire"
)

// TCP is a Transport over DNS-over-TCP (RFC 1035 §4.2.2: two-byte length
// prefix). Used as the fallback when a UDP response arrives truncated.
type TCP struct {
	// Timeout caps each exchange; a context deadline tightens it further
	// (the earlier of the two wins) but never extends it.
	Timeout time.Duration
}

// Exchange implements Transport.
func (t *TCP) Exchange(ctx context.Context, server Addr, query *dnswire.Message) (*dnswire.Message, error) {
	timeout := t.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}

	// The connect is bounded by the attempt's deadline: a black-holed
	// server (SYN dropped) would otherwise hold it for the kernel's own
	// timeout, long past the engine's per-attempt deadline. A context
	// already done dials nothing.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrServerUnreachable, err)
	}
	ap, err := ParseAddr(string(server))
	var conn Conn
	if err == nil {
		conn, err = connectTCP(ap, deadline)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrServerUnreachable, err)
	}
	defer conn.Close()

	if err := WriteTCPMessage(conn, query); err != nil {
		return nil, err
	}
	resp, err := ReadTCPMessage(conn)
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return nil, fmt.Errorf("%w: %s", ErrTimeout, server)
		}
		return nil, err
	}
	if resp.ID != query.ID {
		return nil, fmt.Errorf("transport: mismatched TCP response ID from %s", server)
	}
	if !dnswire.EchoesQuestion(query, resp) {
		return nil, fmt.Errorf("transport: response from %s does not echo the question", server)
	}
	return resp, nil
}

// WriteTCPMessage writes one length-prefixed DNS message. The message is
// packed into pooled scratch directly after a reserved two-byte prefix,
// so prefix and body go out in a single write (no tinygram pair) and the
// scratch is returned once the write completes.
func WriteTCPMessage(w io.Writer, m *dnswire.Message) error {
	bp := getBuf()
	defer putBuf(bp)
	framed, err := m.AppendPack((*bp)[:2])
	if err != nil {
		return err
	}
	n := len(framed) - 2
	if n > 0xFFFF {
		return errors.New("transport: message exceeds TCP length prefix")
	}
	binary.BigEndian.PutUint16(framed[:2], uint16(n))
	_, err = w.Write(framed)
	return err
}

// ReadTCPMessage reads one length-prefixed DNS message. The body grows
// with the bytes that arrive, not with the length the prefix announces:
// a peer that sends a prefix and stalls holds what it sent, not 64 KiB.
func ReadTCPMessage(r io.Reader) (*dnswire.Message, error) {
	var prefix [2]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(prefix[:]))
	body, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if len(body) < n {
		return nil, io.ErrUnexpectedEOF
	}
	return dnswire.Unpack(body)
}

// TCPServer serves DNS over TCP using a Handler. Each connection runs on
// its own goroutine; concurrent query handling across all connections is
// bounded by MaxInflight.
type TCPServer struct {
	Handler Handler
	// MaxInflight bounds queries being handled at once across every
	// connection. Defaults to DefaultMaxInflight.
	MaxInflight int

	// mu guards ln and conns. ln is nil once Close has begun; conns are
	// the live connections, tracked so Close can wake the idle ones.
	mu    sync.Mutex
	ln    Listener
	conns map[Conn]struct{}
	wg    sync.WaitGroup
	sem   chan struct{}
}

// Listen binds addr (an IP:port literal, or ":port" for every address)
// and serves in background goroutines, returning the bound address.
func (s *TCPServer) Listen(addr string) (string, error) {
	if s.Handler == nil {
		return "", errors.New("transport: TCPServer without Handler")
	}
	ap, err := ParseAddr(addr)
	if err != nil {
		return "", err
	}
	ln, err := ListenTCP(ap)
	if err != nil {
		return "", err
	}
	s.start(ln)
	return ln.Addr().String(), nil
}

// start serves ln on an accept loop.
func (s *TCPServer) start(ln Listener) {
	inflight := s.MaxInflight
	if inflight <= 0 {
		inflight = DefaultMaxInflight
	}
	s.mu.Lock()
	s.ln = ln
	s.conns = make(map[Conn]struct{})
	s.sem = make(chan struct{}, inflight)
	s.mu.Unlock()
	s.wg.Add(1)
	go s.serve(ln)
}

func (s *TCPServer) serve(ln Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return
			}
			backoff = listenerBackoff(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		closing := s.ln == nil
		if !closing {
			s.conns[conn] = struct{}{}
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if closing {
			conn.Close()
			return
		}
		go s.serveConn(conn)
	}
}

// armRead gives conn 30 s to deliver its next query, unless the server
// is closing. Checking and arming under mu means Close either sees this
// deadline and expires it, or armRead sees Close and refuses — a
// connection can never re-arm past a Close and make it wait.
func (s *TCPServer) armRead(conn Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ln != nil && conn.SetReadDeadline(time.Now().Add(30*time.Second)) == nil
}

// serveConn handles queries on one connection until EOF or error;
// multiple queries per connection are supported. Queries on one
// connection are processed in order (responses must not interleave on the
// stream), but each occupies a slot in the shared in-flight pool so a
// flood of connections cannot oversubscribe the resolver.
func (s *TCPServer) serveConn(conn Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		if !s.armRead(conn) {
			return
		}
		query, err := ReadTCPMessage(conn)
		if err != nil {
			return
		}
		if query.Flags.Response {
			continue
		}
		s.sem <- struct{}{}
		resp := s.Handler.HandleQuery(query)
		<-s.sem
		if resp == nil {
			// The handler dropped this query. Dropping one query must not
			// tear down the connection: later pipelined queries on the same
			// stream still deserve answers.
			continue
		}
		if err := WriteTCPMessage(conn, resp); err != nil {
			return
		}
	}
}

// Close stops the server and waits for its goroutines. Connections idle
// between queries are woken by expiring their read deadline; one whose
// query is being handled still gets its answer before it closes.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	for conn := range s.conns {
		conn.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()
	if ln == nil {
		return nil
	}
	err := ln.Close()
	s.wg.Wait()
	return err
}

// UDPWithTCPFallback sends over UDP and retries over TCP when the
// response arrives truncated (TC bit), the standard resolver behaviour.
type UDPWithTCPFallback struct {
	UDP UDP
	TCP TCP
}

// Exchange implements Transport.
func (u *UDPWithTCPFallback) Exchange(ctx context.Context, server Addr, query *dnswire.Message) (*dnswire.Message, error) {
	resp, err := u.UDP.Exchange(ctx, server, query)
	if err != nil {
		return nil, err
	}
	if !resp.Flags.Truncated {
		return resp, nil
	}
	return u.TCP.Exchange(ctx, server, query)
}
