package transport

import (
	"context"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
)

func TestTCPRoundTrip(t *testing.T) {
	srv := &TCPServer{Handler: echoHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	c := &TCP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(11, dnswire.MustName("www.example.com"), dnswire.TypeA)
	resp, err := c.Exchange(context.Background(), Addr(addr), q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if resp.ID != 11 || len(resp.Answer) != 1 {
		t.Errorf("resp = %v", resp)
	}
}

func TestTCPRejectsMismatchedQuestion(t *testing.T) {
	srv := &TCPServer{Handler: HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		r := q.Reply()
		r.Question = []dnswire.Question{{
			Name:  dnswire.MustName("evil.example."),
			Type:  dnswire.TypeA,
			Class: dnswire.ClassIN,
		}}
		return r
	})}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	c := &TCP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(11, dnswire.MustName("x."), dnswire.TypeA)
	if _, err := c.Exchange(context.Background(), Addr(addr), q); err == nil {
		t.Fatal("TCP exchange accepted a response with a mismatched question")
	}
}

func TestTCPMultipleQueriesPerConnection(t *testing.T) {
	srv := &TCPServer{Handler: echoHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	// Use the raw framing helpers over one connection.
	conn, err := dialTCP(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		q := dnswire.NewQuery(uint16(100+i), dnswire.MustName("x.example."), dnswire.TypeA)
		if err := WriteTCPMessage(conn, q); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		resp, err := ReadTCPMessage(conn)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if resp.ID != uint16(100+i) {
			t.Errorf("resp %d has ID %d", i, resp.ID)
		}
	}
}

func TestTCPUnreachable(t *testing.T) {
	c := &TCP{Timeout: 300 * time.Millisecond}
	q := dnswire.NewQuery(1, dnswire.MustName("x."), dnswire.TypeA)
	// A port that is almost certainly closed.
	_, err := c.Exchange(context.Background(), "127.0.0.1:1", q)
	if err == nil {
		t.Fatal("Exchange to closed port succeeded")
	}
}

// bigHandler returns a response too large for a 512-byte UDP datagram.
func bigHandler() Handler {
	return HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		r := q.Reply()
		for i := 0; i < 60; i++ {
			r.Answer = append(r.Answer, dnswire.RR{
				Name: q.Question[0].Name, Class: dnswire.ClassIN, TTL: 60,
				Data: dnswire.TXT{Strings: []string{strings.Repeat("x", 50)}},
			})
		}
		return r
	})
}

func TestUDPTruncatesOversizedResponses(t *testing.T) {
	srv := &UDPServer{Handler: bigHandler()}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	u := &UDP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(5, dnswire.MustName("big.example."), dnswire.TypeTXT)
	resp, err := u.Exchange(context.Background(), Addr(addr), q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if !resp.Flags.Truncated {
		t.Fatal("oversized response not truncated")
	}
	if len(resp.Answer) != 0 {
		t.Errorf("truncated response kept %d answers", len(resp.Answer))
	}
}

func TestUDPWithTCPFallback(t *testing.T) {
	handler := bigHandler()
	// Serve TCP on the same port number so one Addr reaches both.
	udpSrv, tcpSrv := &UDPServer{Handler: handler}, &TCPServer{Handler: handler}
	udpAddr, err := ListenPair(udpSrv, tcpSrv, netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("ListenPair: %v", err)
	}
	defer udpSrv.Close()
	defer tcpSrv.Close()

	c := &UDPWithTCPFallback{
		UDP: UDP{Timeout: 2 * time.Second},
		TCP: TCP{Timeout: 2 * time.Second},
	}
	q := dnswire.NewQuery(6, dnswire.MustName("big.example."), dnswire.TypeTXT)
	resp, err := c.Exchange(context.Background(), Addr(udpAddr), q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if resp.Flags.Truncated {
		t.Fatal("fallback returned a truncated response")
	}
	if len(resp.Answer) != 60 {
		t.Errorf("fallback got %d answers, want 60", len(resp.Answer))
	}
}

func TestTruncatedCopy(t *testing.T) {
	q := dnswire.NewQuery(9, dnswire.MustName("x."), dnswire.TypeA)
	r := q.Reply()
	r.Answer = []dnswire.RR{{
		Name: dnswire.MustName("x."), Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")},
	}}
	tc := r.TruncatedCopy()
	if !tc.Flags.Truncated || len(tc.Answer) != 0 || len(tc.Question) != 1 {
		t.Errorf("TruncatedCopy = %+v", tc)
	}
	if tc.ID != 9 {
		t.Errorf("ID = %d", tc.ID)
	}
}

// dialTCP opens a plain TCP connection for framing-level tests.
func dialTCP(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}
