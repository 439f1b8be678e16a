package mesh

import (
	"context"
	"net"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
)

// startUDPNodes brings up n real-socket mesh nodes on 127.0.0.1 with
// ephemeral ports, each configured with all the others, returning them
// with their sockets and backends. Test files are exempt from the
// wallclock analyzer, so the real clock is fine here.
func startUDPNodes(t *testing.T, n int) ([]*Node, []*Conn, []*fakeBackend) {
	t.Helper()
	conns := make([]*Conn, n)
	for i := range conns {
		conn, err := ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conns[i] = conn
	}
	nodes := make([]*Node, n)
	backends := make([]*fakeBackend, n)
	for i, conn := range conns {
		var peers []string
		for _, c := range conns {
			peers = append(peers, c.LocalAddr()) // NewNode skips its own
		}
		backends[i] = newFakeBackend()
		node, err := NewNode(Config{
			Self:      conn.LocalAddr(),
			Key:       testKey,
			Peers:     peers,
			Transport: conn,
			Clock:     simclock.Real{},
		})
		if err != nil {
			t.Fatal(err)
		}
		node.SetBackend(backends[i])
		nodes[i] = node
	}
	for i, conn := range conns {
		go func() {
			if err := conn.Serve(nodes[i]); err != nil {
				t.Errorf("serve: %v", err)
			}
		}()
	}
	return nodes, conns, backends
}

// TestUDPTwoNodes runs the full stack over real sockets: handshake via
// probe, gossip push, and peer fetch.
func TestUDPTwoNodes(t *testing.T) {
	nodes, _, backends := startUDPNodes(t, 2)
	a, b, aBackend, bBackend := nodes[0], nodes[1], backends[0], backends[1]

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
		t.Fatalf("A did not confirm B from its inbound probe: %+v", aSnap.Peers)
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
	nodes, conns, _ := startUDPNodes(t, 2)
	b := nodes[1]

	huge := make([]byte, MaxFrame+100)
	if _, err := conns[1].pc.WriteToUDP(huge, mustUDPAddr(t, conns[0].LocalAddr())); err != nil {
		t.Fatal(err)
	}
	// The loop must still serve valid traffic afterwards.
	b.Tick(time.Now())
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s := b.Snapshot(); len(s.Peers) == 1 && s.Peers[0].Confirmed {
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
