package transport

// Regression tests for transport-layer bugs: context-blind TCP dialing,
// EDNS0 payload limits that only ever grew, and one dropped query tearing
// down a whole connection.

import (
	"context"
	"net"
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
