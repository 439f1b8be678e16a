package mesh

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
)

// fakeBackend is a canned caching-server surface for node tests. It is
// mutex-guarded because the real-UDP tests touch it from the read-loop
// goroutine while the test goroutine asserts on it.
type fakeBackend struct {
	mu       sync.Mutex
	irr      map[dnswire.Name]*dnswire.Message
	ingested map[dnswire.Name]*dnswire.Message
	answers  map[dnswire.Name]*dnswire.Message
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{
		irr:      make(map[dnswire.Name]*dnswire.Message),
		ingested: make(map[dnswire.Name]*dnswire.Message),
		answers:  make(map[dnswire.Name]*dnswire.Message),
	}
}

func (b *fakeBackend) setIRR(zone dnswire.Name, msg *dnswire.Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.irr[zone] = msg
}

func (b *fakeBackend) setAnswer(name dnswire.Name, msg *dnswire.Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.answers[name] = msg
}

func (b *fakeBackend) getIngested(zone dnswire.Name) *dnswire.Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ingested[zone]
}

func (b *fakeBackend) ZoneIRRMessage(zone dnswire.Name) *dnswire.Message {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.irr[zone]
}

func (b *fakeBackend) IngestPeerIRRs(zone dnswire.Name, msg *dnswire.Message) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ingested[zone] = msg
	return true
}

func (b *fakeBackend) HandleQueryCacheOnly(q *dnswire.Message) *dnswire.Message {
	b.mu.Lock()
	a, ok := b.answers[q.Question[0].Name]
	b.mu.Unlock()
	if !ok {
		resp := q.Reply()
		resp.RCode = dnswire.RCodeServFail
		return resp
	}
	resp := q.Reply()
	resp.RCode = a.RCode
	resp.Answer = a.Answer
	resp.Authority = a.Authority
	return resp
}

// testFleet wires n nodes over a deterministic MeshNet, everyone seeded
// with everyone.
type testFleet struct {
	clk      *simclock.Virtual
	net      *simnet.MeshNet
	nodes    []*Node
	backends []*fakeBackend
}

func newTestFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	clk := simclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	f := &testFleet{clk: clk, net: simnet.NewMeshNet(clk)}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:7946", i+1)
	}
	for _, self := range addrs {
		var peers []string
		for _, a := range addrs {
			if a != self {
				peers = append(peers, a)
			}
		}
		backend := newFakeBackend()
		node, err := NewNode(Config{
			Self:      self,
			Key:       testKey,
			Peers:     peers,
			Transport: f.net.Bind(self),
			Clock:     clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		node.SetBackend(backend)
		f.net.Register(self, node.HandleFrame)
		f.nodes = append(f.nodes, node)
		f.backends = append(f.backends, backend)
	}
	return f
}

// tick runs one failure-detector round on every node at the current
// virtual time, then advances the clock past the probe interval.
func (f *testFleet) tick() {
	now := f.clk.Now()
	for _, n := range f.nodes {
		n.Tick(now)
	}
	f.clk.Advance(DefaultProbeInterval)
}

func TestHandshakeConfirmsPeers(t *testing.T) {
	f := newTestFleet(t, 2)
	f.tick() // first probes: challenge + retry confirm both directions
	for i, n := range f.nodes {
		snap := n.Snapshot()
		if len(snap.Peers) != 1 {
			t.Fatalf("node %d has %d peers, want 1", i, len(snap.Peers))
		}
		p := snap.Peers[0]
		if p.State != "alive" || !p.Confirmed {
			t.Errorf("node %d peer = %+v, want alive and confirmed", i, p)
		}
	}
	if got := f.nodes[0].Snapshot().Counters.ChallengesSent; got == 0 {
		t.Error("no challenge issued on first contact; handshake not exercised")
	}
}

// TestUnconfirmedSourceNotActedOn pins the anti-reflection contract: a
// frame from a configured member that authenticates under the fleet key
// but does not echo the source's cookie must not be acted on — the only
// reply is a challenge no larger than the request, and the backend is
// never invoked.
func TestUnconfirmedSourceNotActedOn(t *testing.T) {
	f := newTestFleet(t, 2)
	node, backend, from := f.nodes[0], f.backends[0], f.nodes[1].Self()

	zone := dnswire.MustName("victim.example.")
	push, err := EncodeIRRPush(zone, &dnswire.Message{
		Answer: []dnswire.RR{{
			Name: zone, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.NS{Host: dnswire.MustName("ns.victim.example.")},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cookie := range []uint64{0, 0xabcdef} { // absent and wrong
		raw, err := EncodeFrame(testKey, Frame{Type: TIRRPush, Seq: 5, Cookie: cookie, Payload: push})
		if err != nil {
			t.Fatal(err)
		}
		reply := node.HandleFrame(raw, from)
		if reply == nil {
			t.Fatal("expected a challenge reply")
		}
		rf, err := DecodeFrame(testKey, reply)
		if err != nil {
			t.Fatal(err)
		}
		if rf.Type != TChallenge {
			t.Errorf("cookie %#x: reply type = %d, want TChallenge", cookie, rf.Type)
		}
		if len(reply) > len(raw) {
			t.Errorf("cookie %#x: challenge (%d bytes) larger than request (%d bytes): amplification",
				cookie, len(reply), len(raw))
		}
		if backend.getIngested(zone) != nil {
			t.Fatalf("cookie %#x: unconfirmed push was ingested", cookie)
		}
	}
	if got := f.nodes[0].Snapshot().Counters.FramesUnconfirmed; got != 2 {
		t.Errorf("FramesUnconfirmed = %d, want 2", got)
	}

	// Echoing the issued cookie must then be accepted.
	chal := node.HandleFrame(mustFrame(t, Frame{Type: TIRRPush, Seq: 6, Payload: push}), from)
	cf, err := DecodeFrame(testKey, chal)
	if err != nil {
		t.Fatal(err)
	}
	ack := node.HandleFrame(mustFrame(t, Frame{Type: TIRRPush, Seq: 7, Cookie: cf.Cookie, Payload: push}), from)
	af, err := DecodeFrame(testKey, ack)
	if err != nil || af.Type != TIRRAck {
		t.Fatalf("confirmed push not acked: frame=%+v err=%v", af, err)
	}
	if backend.getIngested(zone) == nil {
		t.Error("confirmed push was not ingested")
	}
}

func mustFrame(t *testing.T, f Frame) []byte {
	t.Helper()
	raw, err := EncodeFrame(testKey, f)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestUnauthenticatedFrameDropped(t *testing.T) {
	f := newTestFleet(t, 1)
	node := f.nodes[0]
	wrongKey, err := EncodeFrame([]byte("not-the-fleet-key"), Frame{Type: TPing, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range [][]byte{nil, []byte("junk"), wrongKey} {
		if reply := node.HandleFrame(raw, "203.0.113.9:7946"); reply != nil {
			t.Errorf("unauthenticated frame %q got a %d-byte reply, want silence", raw, len(reply))
		}
	}
	// Authenticated under the fleet key, but from a source nobody
	// configured: no challenge, no row.
	if reply := node.HandleFrame(mustFrame(t, Frame{Type: TPing, Seq: 2}), "203.0.113.9:7946"); reply != nil {
		t.Errorf("non-member frame got a %d-byte reply, want silence", len(reply))
	}
	snap := f.nodes[0].Snapshot()
	if snap.Counters.FramesBadMAC != 3 || snap.Counters.FramesNonMember != 1 || snap.Counters.ChallengesSent != 0 {
		t.Errorf("counters = %+v, want 3 bad MAC, 1 non-member, no challenge", snap.Counters)
	}
	if len(snap.Peers) != 0 {
		t.Errorf("a stranger was admitted to the member list: %+v", snap.Peers)
	}
	if _, err := node.call(context.Background(), "203.0.113.9:7946", TPing, nil); !errors.Is(err, errNotMember) {
		t.Errorf("call to a non-member = %v, want errNotMember", err)
	}
}

// TestNewNodeWantsIPLiterals: Self and every peer must be an IP:port
// literal with a specified address, stored in the form a datagram's
// source prints as. A wildcard Self would hash ownership under an
// address no peer uses; a host name would be admitted twice, once under
// its name and once under the IP its frames arrive from.
func TestNewNodeWantsIPLiterals(t *testing.T) {
	clk := simclock.NewVirtual(time.Unix(0, 0))
	mnet := simnet.NewMeshNet(clk)
	build := func(self string, peers ...string) (*Node, error) {
		return NewNode(Config{Self: self, Key: testKey, Peers: peers, Transport: mnet.Bind(self), Clock: clk})
	}
	for _, self := range []string{":7946", "[::]:7946", "0.0.0.0:7946", "localhost:7946", "10.0.0.1"} {
		if _, err := build(self); err == nil {
			t.Errorf("Self %q accepted", self)
		}
	}
	for _, p := range []string{"localhost:7946", "0.0.0.0:7946", "10.0.0.2"} {
		if _, err := build("10.0.0.1:7946", p); err == nil {
			t.Errorf("peer %q accepted", p)
		}
	}
	n, err := build("[::ffff:10.0.0.1]:7946", "[::ffff:10.0.0.2]:7946", "10.0.0.2:7946", "10.0.0.1:7946")
	if err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	if snap.Self != "10.0.0.1:7946" || len(snap.Peers) != 1 || snap.Peers[0].Addr != "10.0.0.2:7946" {
		t.Errorf("snapshot = %+v, want self 10.0.0.1:7946 and one peer 10.0.0.2:7946", snap)
	}
}

func TestOwnershipAgreesAcrossFleet(t *testing.T) {
	f := newTestFleet(t, 3)
	f.tick()
	ownerCount := make(map[string]int)
	for i := 0; i < 50; i++ {
		zone := dnswire.MustName(fmt.Sprintf("zone%d.example.", i))
		owner := f.nodes[0].Owner(zone)
		ownerCount[owner]++
		for j, n := range f.nodes[1:] {
			if got := n.Owner(zone); got != owner {
				t.Fatalf("node %d says %s owns %s; node 0 says %s", j+1, got, zone, owner)
			}
		}
		owns := 0
		for _, n := range f.nodes {
			if n.OwnsRenewal(zone) {
				owns++
			}
		}
		if owns != 1 {
			t.Errorf("%d nodes claim renewal duty for %s, want exactly 1", owns, zone)
		}
	}
	// HRW should spread zones across the fleet, not pile them on one node.
	if len(ownerCount) != 3 {
		t.Errorf("ownership distribution %v does not use all 3 nodes", ownerCount)
	}
}

func TestFailureDetectionAndOwnershipTakeover(t *testing.T) {
	f := newTestFleet(t, 3)
	f.tick() // confirm everyone

	// Find a zone owned by node 2, then kill node 2.
	var zone dnswire.Name
	victim := f.nodes[2].Self()
	for i := 0; ; i++ {
		z := dnswire.MustName(fmt.Sprintf("takeover%d.example.", i))
		if f.nodes[0].Owner(z) == victim {
			zone = z
			break
		}
	}
	f.net.Isolate(victim)
	for i := 0; i < DefaultDeadAfter; i++ {
		f.tick()
	}
	for i, n := range f.nodes[:2] {
		snap := n.Snapshot()
		var st string
		for _, p := range snap.Peers {
			if p.Addr == victim {
				st = p.State
			}
		}
		if st != "dead" {
			t.Fatalf("node %d sees %s as %q after %d failed probes, want dead", i, victim, st, DefaultDeadAfter)
		}
	}
	newOwner := f.nodes[0].Owner(zone)
	if newOwner == victim {
		t.Fatalf("dead node still owns %s", zone)
	}
	if got := f.nodes[1].Owner(zone); got != newOwner {
		t.Errorf("survivors disagree on new owner: %s vs %s", got, newOwner)
	}
	owns := 0
	for _, n := range f.nodes[:2] {
		if n.OwnsRenewal(zone) {
			owns++
		}
	}
	if owns != 1 {
		t.Errorf("%d survivors claim %s after takeover, want exactly 1", owns, zone)
	}
}

func TestSuspectPeerKeepsOwnership(t *testing.T) {
	f := newTestFleet(t, 3)
	f.tick()
	zone := dnswire.MustName("steady.example.")
	before := f.nodes[0].Owner(zone)

	// One lost probe round: the peer may go suspect but must keep its
	// zones — a transient drop must not reshuffle renewal duty.
	victim := f.nodes[2].Self()
	f.net.Isolate(victim)
	f.tick()
	f.net.Rejoin(victim)
	if got := f.nodes[0].Owner(zone); got != before {
		t.Errorf("one lost probe moved ownership of %s: %s -> %s", zone, before, got)
	}
}

func TestGossipZonePushesToPeers(t *testing.T) {
	f := newTestFleet(t, 3)
	f.tick()
	zone := dnswire.MustName("gossip.example.")
	f.backends[0].setIRR(zone, &dnswire.Message{
		Question: []dnswire.Question{{Name: zone, Type: dnswire.TypeNS, Class: dnswire.ClassIN}},
		Answer: []dnswire.RR{{
			Name: zone, Class: dnswire.ClassIN, TTL: 120,
			Data: dnswire.NS{Host: dnswire.MustName("ns.gossip.example.")},
		}},
	})
	f.nodes[0].GossipZone(zone)
	for i, b := range f.backends[1:] {
		msg := b.getIngested(zone)
		if msg == nil {
			t.Fatalf("peer %d never ingested the push", i+1)
		}
		if len(msg.Answer) != 1 || msg.Answer[0].Name != zone {
			t.Errorf("peer %d ingested %+v", i+1, msg.Answer)
		}
	}
	if got := f.nodes[0].Snapshot().Counters.IRRPushesSent; got != 2 {
		t.Errorf("IRRPushesSent = %d, want 2", got)
	}
}

func TestPeerFetch(t *testing.T) {
	f := newTestFleet(t, 2)
	f.tick()
	qname := dnswire.MustName("www.fetch.example.")

	// Peer has it cached: the fetch must return the answer.
	f.backends[1].setAnswer(qname, &dnswire.Message{
		Answer: []dnswire.RR{{
			Name: qname, Class: dnswire.ClassIN, TTL: 30,
			Data: dnswire.A{Addr: mustAddr(t, "192.0.2.10")},
		}},
	})
	msg := f.nodes[0].PeerFetch(context.Background(), qname, dnswire.TypeA)
	if msg == nil || len(msg.Answer) != 1 {
		t.Fatalf("PeerFetch = %+v, want the peer's cached answer", msg)
	}
	c := f.nodes[0].Snapshot().Counters
	if c.FetchesSent != 1 || c.FetchHits != 1 {
		t.Errorf("fetch counters = sent %d hits %d, want 1/1", c.FetchesSent, c.FetchHits)
	}

	// Peer has nothing: SERVFAIL maps to a nil miss.
	if msg := f.nodes[0].PeerFetch(context.Background(), dnswire.MustName("cold.example."), dnswire.TypeA); msg != nil {
		t.Errorf("PeerFetch of uncached name = %+v, want nil", msg)
	}
	if c := f.nodes[0].Snapshot().Counters; c.FetchHits != 1 {
		t.Errorf("miss counted as hit: FetchHits = %d", c.FetchHits)
	}
}

func TestPeerFetchNoLivePeers(t *testing.T) {
	f := newTestFleet(t, 2)
	f.net.Isolate(f.nodes[1].Self())
	for i := 0; i < DefaultDeadAfter; i++ {
		f.tick()
	}
	if msg := f.nodes[0].PeerFetch(context.Background(), dnswire.MustName("x.example."), dnswire.TypeA); msg != nil {
		t.Errorf("PeerFetch with all peers dead = %+v, want nil", msg)
	}
}

func TestIsPeerIP(t *testing.T) {
	f := newTestFleet(t, 2)
	if f.nodes[0].IsPeerIP(mustAddr(t, "10.0.0.2")) {
		t.Error("unconfirmed peer IP already exempt")
	}
	f.tick()
	if !f.nodes[0].IsPeerIP(mustAddr(t, "10.0.0.2")) {
		t.Error("confirmed peer IP not recognised")
	}
	if f.nodes[0].IsPeerIP(mustAddr(t, "203.0.113.50")) {
		t.Error("stranger IP recognised as peer")
	}
}

// TestOneLinkCut: with only the A–B link cut, A's own probes take B to
// dead and keep it there — nothing C says about B can revive it — while C,
// whose link to B is fine, sees B alive throughout. Once B is dead to A,
// A's gossip and peer fetches no longer wait on it.
func TestOneLinkCut(t *testing.T) {
	f := newTestFleet(t, 3)
	f.tick()
	a, b, c := f.nodes[0], f.nodes[1], f.nodes[2]
	stateOf := func(n *Node, addr string) string {
		for _, p := range n.Snapshot().Peers {
			if p.Addr == addr {
				return p.State
			}
		}
		return "absent"
	}
	f.net.Cut(a.Self(), b.Self())
	for round := 1; round <= DefaultDeadAfter+10; round++ {
		f.tick()
		if got := stateOf(c, b.Self()); got != "alive" {
			t.Fatalf("round %d: C sees B %s, want alive", round, got)
		}
		if got := stateOf(a, b.Self()); round >= DefaultDeadAfter && got != "dead" {
			t.Fatalf("round %d: A sees B %s, want dead from round %d on", round, got, DefaultDeadAfter)
		}
	}

	// A qname B would win the rendezvous for, were it live.
	var qname dnswire.Name
	for i := 0; qname == ""; i++ {
		q := dnswire.MustName(fmt.Sprintf("www%d.cut.example.", i))
		if rendezvousWeight(b.Self(), q) > rendezvousWeight(c.Self(), q) {
			qname = q
		}
	}
	zone := dnswire.MustName("cut.example.")
	f.backends[0].setIRR(zone, &dnswire.Message{
		Answer: []dnswire.RR{{
			Name: zone, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.NS{Host: dnswire.MustName("ns.cut.example.")},
		}},
	})
	calls, dropped := f.net.Calls, f.net.Dropped
	a.GossipZone(zone)
	a.PeerFetch(context.Background(), qname, dnswire.TypeA)
	if f.net.Dropped != dropped {
		t.Errorf("A made %d calls across the cut link after B went dead", f.net.Dropped-dropped)
	}
	if got := f.net.Calls - calls; got != 2 {
		t.Errorf("A made %d calls for one push and one fetch, want 2 (both to C)", got)
	}
	if f.backends[2].getIngested(zone) == nil {
		t.Error("C did not get A's push")
	}
}

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
