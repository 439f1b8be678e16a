package mesh

import (
	"context"
	"net"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
)

// startUDPNode brings up one real-socket mesh node on 127.0.0.1 with an
// ephemeral port, returning it with its backend. Test files are exempt
// from the wallclock analyzer, so the real clock is fine here.
func startUDPNode(t *testing.T, peers []string) (*Node, *Conn, *fakeBackend) {
	t.Helper()
	conn, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	backend := newFakeBackend()
	node, err := NewNode(Config{
		Self:         conn.LocalAddr(),
		Key:          testKey,
		Peers:        peers,
		Transport:    conn,
		Clock:        simclock.Real{},
		OwnerRenewal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	node.SetBackend(backend)
	go func() {
		if err := conn.Serve(node); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	return node, conn, backend
}

// TestUDPTwoNodes runs the full stack over real sockets: handshake via
// probe, gossip push, and peer fetch.
func TestUDPTwoNodes(t *testing.T) {
	a, aConn, aBackend := startUDPNode(t, nil)
	b, _, bBackend := startUDPNode(t, []string{aConn.LocalAddr()})

	// B probes A: first contact challenges, the retry confirms.
	b.Tick(time.Now())
	var confirmed bool
	for i := 0; i < 50 && !confirmed; i++ {
		snap := b.Snapshot()
		confirmed = len(snap.Peers) == 1 && snap.Peers[0].Confirmed && snap.Peers[0].State == "alive"
		if !confirmed {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !confirmed {
		t.Fatalf("B never confirmed A over UDP: %+v", b.Snapshot().Peers)
	}
	// A saw B's authenticated, cookie-echoed probe and confirmed it back.
	aSnap := a.Snapshot()
	if len(aSnap.Peers) != 1 || !aSnap.Peers[0].Confirmed {
		t.Fatalf("A did not admit+confirm B from its inbound probe: %+v", aSnap.Peers)
	}

	// Gossip: B pushes a zone's IRRs; GossipZone blocks on the ack, so
	// A's ingest has happened by the time it returns.
	zone := dnswire.MustName("udp.example.")
	bBackend.setIRR(zone, &dnswire.Message{
		Answer: []dnswire.RR{{
			Name: zone, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.NS{Host: dnswire.MustName("ns.udp.example.")},
		}},
	})
	b.GossipZone(zone)
	if aBackend.getIngested(zone) == nil {
		t.Fatal("A never ingested B's gossip push over UDP")
	}

	// Peer fetch: A answers from its (fake) cache.
	qname := dnswire.MustName("www.udp.example.")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if msg := b.PeerFetch(ctx, qname, dnswire.TypeA); msg != nil {
		t.Fatalf("fetch of uncached name = %+v, want nil", msg)
	}
}

// TestUDPOversizedDatagramIgnored pins the read loop's bound: a datagram
// larger than any valid frame is dropped without crashing the loop.
func TestUDPOversizedDatagramIgnored(t *testing.T) {
	a, aConn, _ := startUDPNode(t, nil)
	b, bConn, _ := startUDPNode(t, []string{aConn.LocalAddr()})

	huge := make([]byte, MaxFrame+100)
	if _, err := bConn.pc.WriteToUDP(huge, mustUDPAddr(t, aConn.LocalAddr())); err != nil {
		t.Fatal(err)
	}
	// The loop must still serve valid traffic afterwards.
	b.Tick(time.Now())
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s := b.Snapshot(); len(s.Peers) == 1 && s.Peers[0].Confirmed {
			_ = a
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("read loop did not survive an oversized datagram")
}

func mustUDPAddr(t *testing.T, s string) *net.UDPAddr {
	t.Helper()
	addr, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}
