package transport

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
)

// inlineHandler settles every name but slow inline; slow is declined, and
// its HandleQuery parks until release closes.
type inlineHandler struct {
	slow    dnswire.Name
	started chan struct{} // one token per parked HandleQuery
	release chan struct{}

	inlineCalls, handleCalls atomic.Int32
	// meet, when set, is called inside every inline entry.
	meet func()
}

func (h *inlineHandler) HandleInline(q *Query, _ []byte) ([]byte, *dnswire.Message, bool) {
	h.inlineCalls.Add(1)
	if h.meet != nil {
		h.meet()
	}
	m, err := q.Message()
	if err != nil || !q.From.Addr().IsLoopback() || m.Question[0].Name == h.slow {
		return nil, nil, false
	}
	return nil, echoHandler().HandleQuery(m), true
}

func (h *inlineHandler) HandleQuery(q *dnswire.Message) *dnswire.Message {
	h.handleCalls.Add(1)
	h.started <- struct{}{}
	<-h.release
	return echoHandler().HandleQuery(q)
}

// TestUDPServerInlineExits drives the three exits of the read loop with
// the one handler slot held: what the inline entry settles is answered
// from the loop, what it declines goes to a handler goroutine or — no slot
// free — to the overload hook, each query through the inline entry exactly
// once; and Close drains the parked handler.
func TestUDPServerInlineExits(t *testing.T) {
	slow, fast := dnswire.MustName("slow.example."), dnswire.MustName("fast.example.")
	h := &inlineHandler{slow: slow, started: make(chan struct{}, 1), release: make(chan struct{})}
	var overloaded atomic.Int32
	srv := &UDPServer{
		MaxInflight: 1,
		Handler:     h,
		Overload: func(q *dnswire.Message) *dnswire.Message {
			overloaded.Add(1)
			resp := q.Reply()
			resp.RCode = dnswire.RCodeServFail
			return resp
		},
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}

	// B: declined inline, parks on the only handler slot.
	wire, err := dnswire.NewQuery(1, slow, dnswire.TypeA).Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	client, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer client.Close()
	if _, err := client.Write(wire); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case <-h.started:
	case <-time.After(2 * time.Second):
		t.Fatal("declined query never reached HandleQuery")
	}

	// A: settled inline while B is parked and no slot is free.
	u := &UDP{Timeout: 2 * time.Second}
	resp, err := u.Exchange(context.Background(), Addr(addr), dnswire.NewQuery(2, fast, dnswire.TypeA))
	if err != nil || len(resp.Answer) != 1 {
		t.Fatalf("inline-settled query behind a parked handler: resp %v, err %v", resp, err)
	}
	// A second B finds the slot busy: the overload hook answers it.
	resp, err = u.Exchange(context.Background(), Addr(addr), dnswire.NewQuery(3, slow, dnswire.TypeA))
	if err != nil || resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("declined query with no slot free: resp %v, err %v, want the hook's SERVFAIL", resp, err)
	}
	if in, hq, ov := h.inlineCalls.Load(), h.handleCalls.Load(), overloaded.Load(); in != 3 || hq != 1 || ov != 1 {
		t.Errorf("inline entries %d, HandleQuery calls %d, overload calls %d; want 3, 1, 1", in, hq, ov)
	}

	// Close waits for the parked handler.
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a handler was still parked")
	case <-time.After(100 * time.Millisecond):
	}
	close(h.release)
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the parked handler was released")
	}
}

// TestUDPServerReadLoopPerP: with two Ps there are two read loops, so two
// inline entries run at once — the first to arrive waits inside the entry
// for the second, which only another loop can deliver.
func TestUDPServerReadLoopPerP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	var inside atomic.Int32
	var alone atomic.Bool
	both := make(chan struct{})
	h := &inlineHandler{meet: func() {
		if inside.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(2 * time.Second):
			alone.Store(true)
		}
	}}
	srv := &UDPServer{Handler: h}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	errs := make(chan error, 2)
	for id := uint16(1); id <= 2; id++ {
		go func() {
			_, err := (&UDP{Timeout: 5 * time.Second}).Exchange(context.Background(), Addr(addr), dnswire.NewQuery(id, dnswire.MustName("www.example."), dnswire.TypeA))
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Errorf("Exchange: %v", err)
		}
	}
	if alone.Load() {
		t.Error("a query waited inside the inline entry and no other joined it: one read loop, not one per P")
	}
}

// probeHandler records what the read loop hands its inline entry and
// answers a plain query with packed bytes of its own, the rest with resp.
type probeHandler struct {
	keyed, unpacked atomic.Int32
}

// probeReply is what probeHandler sends for a plain query, as packed.
var probeReply = []byte("packed reply bytes")

func (h *probeHandler) HandleInline(q *Query, buf []byte) ([]byte, *dnswire.Message, bool) {
	if q.Key != nil {
		if q.Msg != nil {
			return nil, nil, true // a keyed query arrives unparsed; drop to fail the test
		}
		h.keyed.Add(1)
		return append(buf[:0], probeReply...), nil, true
	}
	h.unpacked.Add(1)
	return nil, echoHandler().HandleQuery(q.Msg), true
}

func (h *probeHandler) HandleQuery(q *dnswire.Message) *dnswire.Message { return nil }

// TestUDPServerOffersPlainQueriesUnparsed: a plain query reaches the inline
// entry with its key and without its message, and packed bytes it returns
// are sent as they are; a query QueryKey turns down (an EDNS0 option) is
// unpacked first; garbage is answered FORMERR and reaches no handler.
func TestUDPServerOffersPlainQueriesUnparsed(t *testing.T) {
	h := &probeHandler{}
	srv := &UDPServer{Handler: h}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	plain, err := dnswire.NewQuery(1, dnswire.MustName("www.example."), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if reply, ok := rawUDPSend(t, addr, plain); !ok || !bytes.Equal(reply, probeReply) {
		t.Errorf("plain query answered %q, want the handler's packed bytes", reply)
	}

	withOption := dnswire.NewQuery(2, dnswire.MustName("www.example."), dnswire.TypeA)
	withOption.Additional = []dnswire.RR{{Name: dnswire.Root, Class: 1232, Data: dnswire.OPT{Options: []byte{0, 10, 0, 0}}}}
	wire, err := withOption.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	reply, ok := rawUDPSend(t, addr, wire)
	if resp, err := dnswire.Unpack(reply); !ok || err != nil || resp.ID != 2 || len(resp.Answer) != 1 {
		t.Errorf("query with an EDNS0 option answered %q (%v), want the echo answer", reply, err)
	}

	if reply, ok := rawUDPSend(t, addr, plain[:14]); !ok || bytes.Equal(reply, probeReply) {
		t.Errorf("torn query answered %q, want FORMERR", reply)
	}
	if k, u := h.keyed.Load(), h.unpacked.Load(); k != 1 || u != 1 {
		t.Errorf("inline entry saw %d keyed and %d unpacked queries, want 1 and 1", k, u)
	}
}
