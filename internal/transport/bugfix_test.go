package transport

// Regression tests for transport-layer bugs: context-blind TCP dialing,
// EDNS0 payload limits that only ever grew, TCP queries losing their
// source address, and one dropped query tearing down a whole connection.

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
)

// TestTCPExchangeCancelledContext: Exchange used net.Dial, which ignores
// the caller's context, so a cancelled context still waited out the full
// connect. With DialContext the dial must fail immediately.
func TestTCPExchangeCancelledContext(t *testing.T) {
	// A live listener that would accept: the dial can only fail because
	// the context says so.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &TCP{Timeout: time.Hour}
	q := dnswire.NewQuery(1, dnswire.MustName("x."), dnswire.TypeA)
	start := time.Now()
	_, err = c.Exchange(ctx, Addr(ln.Addr().String()), q)
	if err == nil {
		t.Fatal("Exchange succeeded with a cancelled context")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled dial took %v, want immediate return", elapsed)
	}
}

// TestUDPClampsToClientEDNS0Advertisement: writeResponse used to only
// raise the limit from the client's advertisement; RFC 6891 §6.2.5 says a
// response must never exceed it. A client advertising 1232 against a
// server willing to emit 4096 must get truncation at 1232.
func TestUDPClampsToClientEDNS0Advertisement(t *testing.T) {
	srv := &UDPServer{Handler: bigHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	u := &UDP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(21, dnswire.MustName("big.example."), dnswire.TypeTXT)
	q.SetEDNS0(1232) // the ~3.8 KB reply exceeds this
	resp, err := u.Exchange(context.Background(), Addr(addr), q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if !resp.Flags.Truncated {
		t.Fatal("response above the client's 1232-byte advertisement was not truncated")
	}
}

// TestUDPEDNS0AdvertisementStillRaisesAbove512: the clamp fix must not
// regress the raise direction — an EDNS0 client advertising 4096 still
// receives a large response in one datagram.
func TestUDPEDNS0AdvertisementStillRaisesAbove512(t *testing.T) {
	srv := &UDPServer{Handler: bigHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	u := &UDP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(22, dnswire.MustName("big.example."), dnswire.TypeTXT)
	q.SetEDNS0(dnswire.DefaultEDNS0PayloadSize)
	resp, err := u.Exchange(context.Background(), Addr(addr), q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if resp.Flags.Truncated {
		t.Fatal("response within the client's 4096-byte advertisement was truncated")
	}
	if len(resp.Answer) != 60 {
		t.Errorf("got %d answers, want 60", len(resp.Answer))
	}
}

// TestUDPTinyEDNS0AdvertisementRaisedToClassicFloor: an advertisement
// below 512 is raised to the classic floor, never below it.
func TestUDPTinyEDNS0AdvertisementRaisedToClassicFloor(t *testing.T) {
	srv := &UDPServer{Handler: echoHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	u := &UDP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(23, dnswire.MustName("www.example.com"), dnswire.TypeA)
	q.SetEDNS0(64) // absurdly small; the floor is 512
	resp, err := u.Exchange(context.Background(), Addr(addr), q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if resp.Flags.Truncated {
		t.Fatal("small response truncated under a tiny EDNS0 advertisement; the 512 floor was not applied")
	}
}

// addrRecorder implements AddrHandler, remembering the source address of
// every query it answers.
type addrRecorder struct {
	inner Handler

	mu    sync.Mutex
	addrs []net.Addr
}

func (a *addrRecorder) HandleQuery(q *dnswire.Message) *dnswire.Message {
	return a.HandleQueryFrom(q, nil)
}

func (a *addrRecorder) HandleQueryFrom(q *dnswire.Message, from net.Addr) *dnswire.Message {
	a.mu.Lock()
	a.addrs = append(a.addrs, from)
	a.mu.Unlock()
	return a.inner.HandleQuery(q)
}

func (a *addrRecorder) recorded() []net.Addr {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]net.Addr(nil), a.addrs...)
}

// TestTCPServerDispatchesAddrHandler: serveConn used to call HandleQuery
// unconditionally, so TCP queries reached per-client policy (the guard
// layer) with no source address while UDP queries carried one. Both paths
// must now report the client's address.
func TestTCPServerDispatchesAddrHandler(t *testing.T) {
	rec := &addrRecorder{inner: echoHandler()}

	udpSrv := &UDPServer{Handler: rec}
	udpAddr, err := udpSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("udp Listen: %v", err)
	}
	defer udpSrv.Close()
	tcpSrv := &TCPServer{Handler: rec}
	tcpAddr, err := tcpSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("tcp Listen: %v", err)
	}
	defer tcpSrv.Close()

	q := dnswire.NewQuery(31, dnswire.MustName("x.example."), dnswire.TypeA)
	u := &UDP{Timeout: 2 * time.Second}
	if _, err := u.Exchange(context.Background(), Addr(udpAddr), q); err != nil {
		t.Fatalf("udp Exchange: %v", err)
	}
	c := &TCP{Timeout: 2 * time.Second}
	if _, err := c.Exchange(context.Background(), Addr(tcpAddr), q); err != nil {
		t.Fatalf("tcp Exchange: %v", err)
	}

	addrs := rec.recorded()
	if len(addrs) != 2 {
		t.Fatalf("recorded %d addresses, want 2", len(addrs))
	}
	for i, a := range addrs {
		if a == nil {
			t.Fatalf("query %d dispatched without a source address", i)
		}
	}
	udpHost, _, err := net.SplitHostPort(addrs[0].String())
	if err != nil {
		t.Fatalf("udp client addr %q: %v", addrs[0], err)
	}
	tcpHost, _, err := net.SplitHostPort(addrs[1].String())
	if err != nil {
		t.Fatalf("tcp client addr %q: %v", addrs[1], err)
	}
	if udpHost != tcpHost {
		t.Errorf("UDP saw client %s but TCP saw %s; both paths must report the same client", udpHost, tcpHost)
	}
}

// TestTCPServerSurvivesDroppedQuery: a nil handler response used to close
// the whole connection, killing pipelined queries behind the dropped one.
// The connection must stay open and answer the next query.
func TestTCPServerSurvivesDroppedQuery(t *testing.T) {
	drop := dnswire.MustName("drop.example.")
	srv := &TCPServer{Handler: HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		if q.Question[0].Name == drop {
			return nil
		}
		r := q.Reply()
		return r
	})}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	conn, err := dialTCP(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	// Pipeline two queries: the first is dropped, the second answered.
	q1 := dnswire.NewQuery(41, drop, dnswire.TypeA)
	q2 := dnswire.NewQuery(42, dnswire.MustName("keep.example."), dnswire.TypeA)
	if err := WriteTCPMessage(conn, q1); err != nil {
		t.Fatalf("write q1: %v", err)
	}
	if err := WriteTCPMessage(conn, q2); err != nil {
		t.Fatalf("write q2: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := ReadTCPMessage(conn)
	if err != nil {
		t.Fatalf("read after dropped query: %v (connection closed?)", err)
	}
	if resp.ID != 42 {
		t.Errorf("resp.ID = %d, want 42 (the non-dropped query)", resp.ID)
	}
}
