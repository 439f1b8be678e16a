package transport

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
)

// heapInuse returns the heap in use after two collections, so what
// sync.Pool keeps idle between them is gone.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestParkedExchangesHoldNoBuffers: 512 exchanges parked on a server that
// never answers hold their sockets and deadlines, not a 64 KiB read
// buffer each (which came to +32 MiB).
func TestParkedExchangesHoldNoBuffers(t *testing.T) {
	const parked = 512
	silent, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

	before := heapInuse()
	u := &UDP{Timeout: 3 * time.Second}
	var wg sync.WaitGroup
	for i := 0; i < parked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := dnswire.NewQuery(uint16(i), dnswire.MustName("parked.example."), dnswire.TypeA)
			if _, err := u.Exchange(context.Background(), Addr(silent.LocalAddr().String()), q); !errors.Is(err, ErrTimeout) {
				t.Errorf("exchange %d: %v, want ErrTimeout", i, err)
			}
		}(i)
	}
	// The exchanges park within milliseconds, and the silent socket
	// cannot count them (512 queries overflow its receive queue), so the
	// wait is a generous bound: cut short, it could only under-count the
	// growth, never fail a tree that holds no buffers.
	time.Sleep(500 * time.Millisecond)
	grown := int64(heapInuse()) - int64(before)
	t.Logf("%d parked exchanges: heap in use %+.1f MiB", parked, float64(grown)/(1<<20))
	if grown >= 4<<20 {
		t.Errorf("%d parked exchanges grew the heap by %.1f MiB, want < 4 MiB", parked, float64(grown)/(1<<20))
	}
	wg.Wait()
}

// TestUDPSkipsQueuedBadDatagrams: a garbled datagram, a stale-ID reply
// and a wrong-question reply queued ahead of the real one in one burst
// are skipped, and the real reply is returned.
func TestUDPSkipsQueuedBadDatagrams(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 512)
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		q, err := dnswire.Unpack(buf[:n])
		if err != nil {
			return
		}
		stale := q.Reply()
		stale.ID++
		wrong := q.Reply()
		wrong.Question = []dnswire.Question{{Name: dnswire.MustName("evil.example."), Type: dnswire.TypeA, Class: dnswire.ClassIN}}
		real := q.Reply()
		real.Answer = []dnswire.RR{{Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 60, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}}
		burst := [][]byte{{0xde, 0xad}}
		for _, m := range []*dnswire.Message{stale, wrong, real} {
			wire, err := m.AppendPack(nil)
			if err != nil {
				return
			}
			burst = append(burst, wire)
		}
		for _, d := range burst {
			pc.WriteTo(d, from)
		}
	}()

	u := &UDP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(42, dnswire.MustName("burst.example."), dnswire.TypeA)
	resp, err := u.Exchange(context.Background(), Addr(pc.LocalAddr().String()), q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if resp.ID != 42 || len(resp.Answer) != 1 || resp.Question[0].Name != "burst.example." {
		t.Errorf("took %v, want the real reply", resp)
	}
}

// TestUDPClosedPortFailsFast: the connected socket sees the port's
// ICMP refusal, so an exchange to a closed port fails at once, not at
// its deadline.
func TestUDPClosedPortFailsFast(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()

	u := &UDP{Timeout: 3 * time.Second}
	q := dnswire.NewQuery(1, dnswire.MustName("closed.example."), dnswire.TypeA)
	start := time.Now()
	_, err = u.Exchange(context.Background(), Addr(addr), q)
	if err == nil || errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want a refusal before the deadline", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("a closed port took %v to fail", elapsed)
	}
}

// TestUDPFreshSourcePortPerExchange: every exchange connects its socket
// afresh, so the server sees a new kernel-chosen source port each time
// (RFC 5452). Ports are drawn at random, so one repeat in eight is allowed; a
// shared socket would show one port eight times.
func TestUDPFreshSourcePortPerExchange(t *testing.T) {
	var mu sync.Mutex
	ports := map[uint16]bool{}
	srv := &UDPServer{Handler: &portRecorder{mu: &mu, ports: ports}}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 8
	u := &UDP{Timeout: 2 * time.Second}
	for i := 0; i < n; i++ {
		q := dnswire.NewQuery(uint16(i), dnswire.MustName("port.example."), dnswire.TypeA)
		if _, err := u.Exchange(context.Background(), Addr(addr), q); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ports) < n-1 {
		t.Errorf("%d exchanges came from %d source ports, want at least %d", n, len(ports), n-1)
	}
}

// portRecorder answers every query inline and records its source port.
type portRecorder struct {
	mu    *sync.Mutex
	ports map[uint16]bool
}

func (h *portRecorder) HandleInline(q *Query, _ []byte) ([]byte, *dnswire.Message, bool) {
	m, err := q.Message()
	if err != nil {
		return nil, nil, true
	}
	h.mu.Lock()
	h.ports[q.From.Port()] = true
	h.mu.Unlock()
	return nil, m.Reply(), true
}

func (h *portRecorder) HandleQuery(q *dnswire.Message) *dnswire.Message { return q.Reply() }

// TestTCPStalledPeersHoldNoBuffers: 256 peers that each announce a
// 65 535-byte message and send one byte of it hold what they sent, not
// a 64 KiB body buffer each (which came to +16 MiB).
func TestTCPStalledPeersHoldNoBuffers(t *testing.T) {
	const peers = 256
	srv := &TCPServer{Handler: echoHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	before := heapInuse()
	conns := make([]net.Conn, 0, peers)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < peers; i++ {
		c, err := dialTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if _, err := c.Write([]byte{0xff, 0xff, 0x00}); err != nil {
			t.Fatal(err)
		}
	}
	// Every connection reaches its body read within milliseconds; as
	// above, a wait cut short could only under-count the growth.
	time.Sleep(200 * time.Millisecond)
	grown := int64(heapInuse()) - int64(before)
	t.Logf("%d stalled peers: heap in use %+.1f MiB", peers, float64(grown)/(1<<20))
	if grown >= 4<<20 {
		t.Errorf("%d stalled peers grew the heap by %.1f MiB, want < 4 MiB", peers, float64(grown)/(1<<20))
	}
}
