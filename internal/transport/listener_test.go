package transport

import (
	"context"
	"net"
	"net/netip"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
)

// errTransient is what a listener returns when the process is out of file
// descriptors — the error a connection flood provokes.
var errTransient = &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}

// flakyListener fails the first `failures` Accept calls, then delegates.
type flakyListener struct {
	*TCPListener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, errTransient
	}
	return l.TCPListener.Accept()
}

// flakyUDPConn fails the first `failures` ReadFromUDPAddrPort calls, then
// delegates.
type flakyUDPConn struct {
	*UDPConn
	failures atomic.Int32
}

func (c *flakyUDPConn) ReadFromUDPAddrPort(p []byte) (int, netip.AddrPort, error) {
	if c.failures.Add(-1) >= 0 {
		return 0, netip.AddrPort{}, errTransient
	}
	return c.UDPConn.ReadFromUDPAddrPort(p)
}

// TestTCPServerSurvivesAcceptErrors: Accept failing with EMFILE must not
// end the accept loop; the server backs off and serves the next client.
func TestTCPServerSurvivesAcceptErrors(t *testing.T) {
	inner, err := ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{TCPListener: inner}
	ln.failures.Store(3)
	srv := &TCPServer{Handler: echoHandler(), ln: ln, conns: map[Conn]struct{}{}, sem: make(chan struct{}, 4)}
	srv.wg.Add(1)
	go srv.serve(ln)
	defer srv.Close()

	c := &TCP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(7, dnswire.MustName("www.example.com"), dnswire.TypeA)
	resp, err := c.Exchange(context.Background(), Addr(inner.Addr().String()), q)
	if err != nil {
		t.Fatalf("Exchange after 3 transient Accept errors: %v", err)
	}
	if resp.ID != 7 || len(resp.Answer) != 1 {
		t.Errorf("resp = %v", resp)
	}
	if left := ln.failures.Load(); left >= 0 {
		t.Errorf("only %d of 3 Accept failures were consumed", 3-left)
	}
}

// TestUDPServerSurvivesReadErrors: the same for the UDP read loop.
func TestUDPServerSurvivesReadErrors(t *testing.T) {
	inner, err := ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	conn := &flakyUDPConn{UDPConn: inner}
	conn.failures.Store(3)
	srv := &UDPServer{Handler: echoHandler(), conn: conn, sem: make(chan struct{}, 4)}
	srv.wg.Add(1)
	go srv.serve(conn)
	defer srv.Close()

	u := &UDP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(9, dnswire.MustName("www.example.com"), dnswire.TypeA)
	resp, err := u.Exchange(context.Background(), Addr(inner.LocalAddr().String()), q)
	if err != nil {
		t.Fatalf("Exchange after 3 transient read errors: %v", err)
	}
	if resp.ID != 9 || len(resp.Answer) != 1 {
		t.Errorf("resp = %v", resp)
	}
}

// TestTCPCloseDoesNotWaitForIdleClients: a client that connects and sends
// nothing must not hold Close for its 30 s read deadline, while a query
// already being handled when Close starts still gets its answer.
func TestTCPCloseDoesNotWaitForIdleClients(t *testing.T) {
	slow := dnswire.MustName("slow.example.com")
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := &TCPServer{Handler: HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		if q.Question[0].Name == slow {
			close(entered)
			<-release
		}
		return q.Reply()
	})}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	if err := WriteTCPMessage(busy, dnswire.NewQuery(5, slow, dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}
	<-entered
	waitFor(t, "both connections accepted", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 2
	})

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	waitFor(t, "Close to begin", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.ln == nil
	})
	close(release)

	busy.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := ReadTCPMessage(busy)
	if err != nil {
		t.Fatalf("in-flight query lost its answer to Close: %v", err)
	}
	if resp.ID != 5 {
		t.Errorf("resp.ID = %d, want 5", resp.ID)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting on an idle connection after 5s")
	}
	if d := time.Since(start); d >= time.Second {
		t.Errorf("Close took %v with an idle client connected, want < 1s", d)
	}
}

// waitFor polls cond until it holds, failing the test after 2 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
