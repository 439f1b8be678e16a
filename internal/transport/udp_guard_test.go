package transport

import (
	"net"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
)

// rawUDPSend sends a raw datagram to addr and waits briefly for one reply.
// ok=false means the server stayed silent.
func rawUDPSend(t *testing.T, addr string, pkt []byte) ([]byte, bool) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(pkt); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, false
	}
	return buf[:n], true
}

func TestUDPServerFormErr(t *testing.T) {
	counters := metrics.NewSet[metrics.GuardCounters]()
	srv := &UDPServer{Handler: echoHandler(), Counters: counters}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	// A query truncated mid-question: the 12-byte header parses (ID,
	// opcode, QR=0) but the body does not.
	q := dnswire.NewQuery(0xBEEF, dnswire.MustName("www.example.com."), dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	reply, ok := rawUDPSend(t, addr, wire[:14])
	if !ok {
		t.Fatal("no reply to a malformed query with a parseable header")
	}
	resp, err := dnswire.Unpack(reply)
	if err != nil {
		t.Fatalf("Unpack(reply): %v", err)
	}
	if resp.ID != 0xBEEF || resp.RCode != dnswire.RCodeFormErr || !resp.Flags.Response {
		t.Errorf("reply = id %#x rcode %v qr %v, want FORMERR echoing id 0xBEEF", resp.ID, resp.RCode, resp.Flags.Response)
	}
	if got := metrics.Snapshot(counters).FormErr; got != 1 {
		t.Errorf("FormErr counter = %d, want 1", got)
	}

	// Shorter than a header: nothing to echo, stay silent.
	if _, ok := rawUDPSend(t, addr, wire[:5]); ok {
		t.Error("got a reply to a sub-header packet; want silence")
	}

	// A malformed packet with QR=1: answering it could start a reply loop
	// between two servers, so it must be dropped silently too.
	r := q.Reply()
	rwire, err := r.Pack()
	if err != nil {
		t.Fatalf("Pack(reply): %v", err)
	}
	if _, ok := rawUDPSend(t, addr, rwire[:14]); ok {
		t.Error("got a reply to a malformed response packet; want silence")
	}

	if got := metrics.Snapshot(counters).FormErr; got != 1 {
		t.Errorf("FormErr counter = %d after silent drops, want still 1", got)
	}

	// A well-formed response packet is also never answered.
	if _, ok := rawUDPSend(t, addr, rwire); ok {
		t.Error("got a reply to a well-formed response packet; want silence")
	}
}

// TestUDPServerOverloadHook saturates a MaxInflight=1 server with a
// blocked handler and checks the overflow query is handed to the
// Overload hook — synchronously — and the hook's answer reaches the
// client.
func TestUDPServerOverloadHook(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	overloaded := make(chan dnswire.Name, 1)

	srv := &UDPServer{
		MaxInflight: 1,
		Handler: HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
			started <- struct{}{}
			<-block
			return q.Reply()
		}),
		Overload: func(q *dnswire.Message) *dnswire.Message {
			overloaded <- q.Question[0].Name
			resp := q.Reply()
			resp.RCode = dnswire.RCodeServFail
			return resp
		},
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	defer close(block)

	// First query occupies the only inflight slot.
	q1, err := dnswire.NewQuery(1, dnswire.MustName("slow.example."), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	conn1, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn1.Close()
	if _, err := conn1.Write(q1); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}

	// Second query finds the slot busy and must flow through the hook.
	q2wire, err := dnswire.NewQuery(2, dnswire.MustName("fast.example."), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	reply, ok := rawUDPSend(t, addr, q2wire)
	if !ok {
		t.Fatal("no reply from the overload hook")
	}
	resp, err := dnswire.Unpack(reply)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if resp.ID != 2 || resp.RCode != dnswire.RCodeServFail {
		t.Errorf("overload reply = id %d rcode %v, want id 2 SERVFAIL", resp.ID, resp.RCode)
	}
	select {
	case name := <-overloaded:
		if name != "fast.example." {
			t.Errorf("hook saw a query for %s, want fast.example.", name)
		}
	default:
		t.Error("Overload hook was not invoked")
	}
}

// TestUDPServerShedsWithoutHook: with no Overload hook, saturated
// arrivals are silently dropped and counted.
func TestUDPServerShedsWithoutHook(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	counters := metrics.NewSet[metrics.GuardCounters]()

	srv := &UDPServer{
		MaxInflight: 1,
		Counters:    counters,
		Handler: HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
			started <- struct{}{}
			<-block
			return q.Reply()
		}),
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	defer close(block)

	q1, err := dnswire.NewQuery(1, dnswire.MustName("slow.example."), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	conn1, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn1.Close()
	if _, err := conn1.Write(q1); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}

	q2, err := dnswire.NewQuery(2, dnswire.MustName("x.example."), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if _, ok := rawUDPSend(t, addr, q2); ok {
		t.Error("saturated query got a reply with no Overload hook; want a drop")
	}
	// The shed count lands synchronously on the read loop before the next
	// datagram is read, and rawUDPSend already waited 300ms.
	if got := metrics.Snapshot(counters).Shed; got != 1 {
		t.Errorf("Shed counter = %d, want 1", got)
	}
}
