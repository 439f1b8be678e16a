//go:build !386

package transport

import (
	"context"
	"errors"
	"net/netip"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

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
// itself allocates nothing, when the caller releases the reply as the
// resolver does. Itemised (1):
//
//	reply    1  the boxed A record
//
// The socket is a pooled one, its os.File and RawConn made once; its read
// callback, result and socket address live beside it, the pack and read
// buffers are pooled, and Unpack copies no wire for a reply whose records
// keep none of it. The reply's Message, question and section array are
// the storage the last released reply gave back (dnswire.UnpackReply),
// and its question's name is the query's own string (4 objects before
// both).
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
		dnswire.Release(resp) // as the resolver does once it has ingested it
	}
	exchange() // warm the pools
	allocs := testing.AllocsPerRun(200, exchange)
	t.Logf("UDP.Exchange allocates %.1f per exchange", allocs)
	if allocs > 2 && !race.Enabled {
		t.Errorf("UDP.Exchange allocates %.1f per exchange, want ≤ 2", allocs)
	}
}

// closeIdleSockets closes every idle exchange socket, so a test starts
// from empty free lists.
func closeIdleSockets() {
	for _, idle := range idleSockets {
	drain:
		for {
			select {
			case s := <-idle:
				s.f.Close()
			default:
				break drain
			}
		}
	}
}

// boundPort is the local port getsockname reads on fd.
func boundPort(t *testing.T, fd uintptr) uint16 {
	t.Helper()
	sa := sockaddr{len: uint32(unsafe.Sizeof(sockaddr{}.raw))}
	if _, _, e := syscall.Syscall(syscall.SYS_GETSOCKNAME, fd, uintptr(unsafe.Pointer(&sa.raw)), uintptr(unsafe.Pointer(&sa.len))); e != 0 {
		t.Fatal(os.NewSyscallError("getsockname", e))
	}
	return sa.addrPort().Port()
}

// answerA is query's reply with one A record for its question.
func answerA(query *dnswire.Message, addr string) []byte {
	reply := query.Reply()
	reply.Answer = []dnswire.RR{{Name: query.Question[0].Name, Class: dnswire.ClassIN, TTL: 60,
		Data: dnswire.A{Addr: netip.MustParseAddr(addr)}}}
	wire, err := reply.Pack()
	if err != nil {
		panic(err)
	}
	return wire
}

// TestPooledSocketFreshPortPerExchange: 64 sequential exchanges go through
// one pooled socket, which holds port 0 between them, and the server sees
// each come from a port the kernel chose afresh (RFC 5452). Ports are
// drawn at random, so a few repeats are allowed; a socket that kept its
// port would show one.
func TestPooledSocketFreshPortPerExchange(t *testing.T) {
	closeIdleSockets()
	var mu sync.Mutex
	ports := map[uint16]bool{}
	srv := &UDPServer{Handler: &portRecorder{mu: &mu, ports: ports}}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 64
	u := &UDP{Timeout: 2 * time.Second}
	var pooled *exchangeSock
	for i := 0; i < n; i++ {
		q := dnswire.NewQuery(uint16(i), dnswire.MustName("port.example."), dnswire.TypeA)
		if _, err := u.Exchange(context.Background(), Addr(addr), q); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if idle := len(idleSockets[0]); idle != 1 {
			t.Fatalf("after exchange %d: %d idle sockets, want the one pooled socket", i, idle)
		}
		s := <-idleSockets[0]
		idleSockets[0] <- s
		if pooled == nil {
			pooled = s
		} else if s != pooled {
			t.Fatalf("exchange %d went through a second socket", i)
		}
		if p := boundPort(t, s.fd); p != 0 {
			t.Fatalf("after exchange %d the idle socket holds port %d, want 0", i, p)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ports) < n-4 {
		t.Errorf("%d exchanges came from %d source ports, want at least %d", n, len(ports), n-4)
	}
}

// TestPooledSocketReleaseDrains: what arrives for an exchange after its
// answer never reaches the next exchange on its socket. A datagram queued
// behind the answer, here one that would pass the next exchange's ID,
// question and source checks, is dropped; and the refusal an exchange to a
// closed port leaves pending on the socket would otherwise fail the next
// exchange's write, and with it an innocent server.
func TestPooledSocketReleaseDrains(t *testing.T) {
	closeIdleSockets()
	srv := loopbackUDP(t)
	ap := srv.LocalAddr()
	q1 := dnswire.NewQuery(1, dnswire.MustName("first.example."), dnswire.TypeA)
	q2 := dnswire.NewQuery(2, dnswire.MustName("second.example."), dnswire.TypeA)

	// An exchange whose answer comes with a forged answer to q2 behind it.
	s, err := takeSock(ap)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.connect(ap); err != nil {
		t.Fatal(err)
	}
	if err := writeQuery(s.f, q1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	_, from, err := srv.ReadFromUDPAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	srv.WriteToUDPAddrPort(answerA(q1, "192.0.2.1"), from)
	srv.WriteToUDPAddrPort(answerA(q2, "192.0.2.66"), from)
	time.Sleep(20 * time.Millisecond) // both queued
	s.release()

	go func() {
		_, from, err := srv.ReadFromUDPAddrPort(buf)
		if err == nil {
			srv.WriteToUDPAddrPort(answerA(q2, "192.0.2.2"), from)
		}
	}()
	if len(idleSockets[0]) != 1 {
		t.Fatal("the released socket is not on the free list")
	}
	resp, err := exchangeUDP(ap, q2, time.Now().Add(2*time.Second))
	if err != nil {
		t.Fatalf("next exchange: %v", err)
	}
	if got := resp.Answer[0].Data.(dnswire.A).Addr; got != netip.MustParseAddr("192.0.2.2") {
		t.Errorf("next exchange took %v, a datagram queued for the exchange before it", got)
	}

	// An exchange to a closed port, released before it reads the refusal.
	closed := loopbackUDP(t)
	dead := closed.LocalAddr()
	closed.Close()
	if s, err = takeSock(dead); err != nil {
		t.Fatal(err)
	}
	if err := s.connect(dead); err != nil {
		t.Fatal(err)
	}
	if err := writeQuery(s.f, q1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the ICMP refusal is pending
	s.release()
	if len(idleSockets[0]) != 1 {
		t.Fatal("the refused socket is not on the free list")
	}
	go func() {
		_, from, err := srv.ReadFromUDPAddrPort(buf)
		if err == nil {
			srv.WriteToUDPAddrPort(answerA(q2, "192.0.2.2"), from)
		}
	}()
	if _, err := exchangeUDP(ap, q2, time.Now().Add(2*time.Second)); err != nil {
		t.Errorf("the exchange after a refused one failed: %v", err)
	}
}

// TestPooledSocketChecksSource: a datagram from anyone but the server the
// socket is connected to is never an answer, even with the right ID and
// question. The kernel delivers nothing else to a connected socket, so the
// test reconnects one without releasing it, over a datagram from its
// first server, which the check must skip.
func TestPooledSocketChecksSource(t *testing.T) {
	closeIdleSockets()
	first, second := loopbackUDP(t), loopbackUDP(t)
	q := dnswire.NewQuery(9, dnswire.MustName("source.example."), dnswire.TypeA)
	s, err := takeSock(first.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	if err := s.connect(first.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := writeQuery(s.f, q); err != nil {
		t.Fatal(err)
	}
	_, from, err := first.ReadFromUDPAddrPort(make([]byte, 512))
	if err != nil {
		t.Fatal(err)
	}
	first.WriteToUDPAddrPort(answerA(q, "192.0.2.66"), from)
	time.Sleep(20 * time.Millisecond) // queued
	if err := s.connect(second.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	s.query, s.deadline = q, time.Now().Add(200*time.Millisecond)
	s.f.SetDeadline(s.deadline)
	if err := s.rc.Read(s.read); !errors.Is(err, os.ErrDeadlineExceeded) || s.resp != nil {
		t.Errorf("read returned %v, %v; want the deadline, not the first server's datagram", s.resp, err)
	}
}

// TestPooledSocketsBounded: a burst of 200 concurrent exchanges opens 200
// sockets, and when it is over at most maxIdleSockets stay open, idle.
func TestPooledSocketsBounded(t *testing.T) {
	const burst = 200
	closeIdleSockets()
	srv := loopbackUDP(t)
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd:", err)
		}
		return len(ents)
	}
	start := fds()
	// The server answers only once every query has arrived, so all 200
	// exchanges hold a socket at once.
	go func() {
		buf := make([]byte, 512)
		type pending struct {
			wire []byte
			from netip.AddrPort
		}
		var got []pending
		for len(got) < burst {
			n, from, err := srv.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			q, err := dnswire.Unpack(buf[:n])
			if err != nil {
				continue
			}
			got = append(got, pending{answerA(q, "192.0.2.1"), from})
		}
		for _, p := range got {
			srv.WriteToUDPAddrPort(p.wire, p.from)
		}
	}()
	u := &UDP{Timeout: 5 * time.Second}
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := dnswire.NewQuery(uint16(i), dnswire.MustName("burst.example."), dnswire.TypeA)
			if _, err := u.Exchange(context.Background(), Addr(srv.LocalAddr().String()), q); err != nil {
				t.Errorf("exchange %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for family, idle := range idleSockets {
		if len(idle) > maxIdleSockets {
			t.Errorf("family %d: %d idle sockets, want at most %d", family, len(idle), maxIdleSockets)
		}
	}
	if open := fds() - start; open > maxIdleSockets {
		t.Errorf("%d descriptors more than before the burst, want at most %d", open, maxIdleSockets)
	}
	t.Logf("%d idle sockets, %d descriptors more than before the burst", len(idleSockets[0]), fds()-start)
}
