//go:build !386

package transport

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/race"
)

func loopbackUDP(t *testing.T) *UDPConn {
	t.Helper()
	c, err := ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestUDPConnDatagramAllocs: a datagram written and read back through the
// socket layer allocates nothing, on either side.
func TestUDPConnDatagramAllocs(t *testing.T) {
	a, b := loopbackUDP(t), loopbackUDP(t)
	msg, buf := []byte("ping"), make([]byte, 512)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.WriteToUDPAddrPort(msg, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		n, from, err := b.ReadFromUDPAddrPort(buf)
		if err != nil || n != len(msg) || from != a.LocalAddr() {
			t.Fatalf("read %d bytes from %v (%v), want %d from %v", n, from, err, len(msg), a.LocalAddr())
		}
	})
	if allocs != 0 && !race.Enabled {
		t.Errorf("write + read allocates %v, want 0", allocs)
	}
}

// TestUDPConnReadsQueuedDatagram: a datagram queued before the first read
// is received. The poller saw the socket readable before the read began,
// and prepareRead clears that, so only a callback that reads before it
// parks finds the datagram; one that parked first would wait forever.
func TestUDPConnReadsQueuedDatagram(t *testing.T) {
	a, b := loopbackUDP(t), loopbackUDP(t)
	if _, err := a.WriteToUDPAddrPort([]byte("early"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the poller see it first
	got := make(chan string, 1)
	go func() {
		buf := make([]byte, 64)
		n, _, err := b.ReadFromUDPAddrPort(buf)
		if err != nil {
			got <- err.Error()
			return
		}
		got <- string(buf[:n])
	}()
	select {
	case s := <-got:
		if s != "early" {
			t.Errorf("read %q, want %q", s, "early")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a datagram queued before the first read was never received")
	}
}

// TestCloseEndsSocketLoops: closing a socket ends a read or accept parked
// on it with ErrClosed, and a server's Close returns once its loops end.
func TestCloseEndsSocketLoops(t *testing.T) {
	u := loopbackUDP(t)
	ln, err := ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { _, _, err := u.ReadFromUDPAddrPort(make([]byte, 64)); errs <- err }()
	go func() { _, err := ln.Accept(); errs <- err }()
	time.Sleep(20 * time.Millisecond) // let both park
	u.Close()
	ln.Close()
	for range 2 {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("parked call returned %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not end a parked read or accept")
		}
	}

	udp, tcp := &UDPServer{Handler: echoHandler()}, &TCPServer{Handler: echoHandler()}
	if _, err := ListenPair(udp, tcp, netip.MustParseAddrPort("127.0.0.1:0")); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		udp.Close()
		tcp.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("server Close did not return")
	}
}

// TestTCPExchangeSilentPeer: a peer that accepts the connection and never
// answers costs the exchange its attempt deadline, then ErrTimeout.
func TestTCPExchangeSilentPeer(t *testing.T) {
	ln, err := ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open, unanswered, until the listener closes
		}
	}()
	const attempt = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), attempt)
	defer cancel()
	start := time.Now()
	_, err = (&TCP{Timeout: time.Hour}).Exchange(ctx, Addr(ln.Addr().String()), dnswire.NewQuery(3, dnswire.MustName("x."), dnswire.TypeA))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed < attempt-10*time.Millisecond || elapsed > attempt+time.Second {
		t.Errorf("exchange returned after %v, want about the %v attempt deadline", elapsed, attempt)
	}
}

// TestUDPExchangeAllocs pins what one UDP.Exchange allocates over
// loopback, its reply's decoding included, against a responder that
// itself allocates nothing. Itemised (7):
//
//	socket   3  the os.File and its file for the fresh socket (2), the
//	            RawConn the read callback runs on (1)
//	reply    4  Unpack's Message with its question, the answer section,
//	            the question's name and the boxed A record
//
// The read callback, its result and the socket address live in a pooled
// exchangeOp, the pack and read buffers are pooled, and Unpack copies no
// wire for a reply whose records keep none of it.
func TestUDPExchangeAllocs(t *testing.T) {
	srv := loopbackUDP(t)
	query := dnswire.NewQuery(1, dnswire.MustName("www.example."), dnswire.TypeA)
	reply := query.Reply()
	reply.Answer = []dnswire.RR{{Name: dnswire.MustName("www.example."), Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}}
	wire, err := reply.Pack()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 512)
		for {
			n, from, err := srv.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if n >= 2 {
				wire[0], wire[1] = buf[0], buf[1]
				srv.WriteToUDPAddrPort(wire, from)
			}
		}
	}()
	u, server := &UDP{Timeout: 2 * time.Second}, Addr(srv.LocalAddr().String())
	exchange := func() {
		resp, err := u.Exchange(context.Background(), server, query)
		if err != nil || len(resp.Answer) != 1 {
			t.Fatalf("exchange: %v, %v", resp, err)
		}
	}
	exchange() // warm the pools
	allocs := testing.AllocsPerRun(200, exchange)
	t.Logf("UDP.Exchange allocates %.1f per exchange", allocs)
	if allocs > 8 && !race.Enabled {
		t.Errorf("UDP.Exchange allocates %.1f per exchange, want ≤ 8", allocs)
	}
}
