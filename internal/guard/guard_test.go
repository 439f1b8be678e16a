package guard

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeBackend answers every query NoError and records which entry point
// served it.
type fakeBackend struct {
	queries, cacheOnly int
}

func (b *fakeBackend) HandleQuery(q *dnswire.Message) *dnswire.Message {
	b.queries++
	resp := q.Reply()
	resp.Answer = append(resp.Answer, dnswire.RR{
		Name:  q.Question[0].Name,
		Class: dnswire.ClassIN,
		TTL:   60,
		Data:  dnswire.A{Addr: netip.MustParseAddr("10.0.0.1")},
	})
	return resp
}

func (b *fakeBackend) HandleQueryCacheOnly(q *dnswire.Message) *dnswire.Message {
	b.cacheOnly++
	resp := q.Reply()
	resp.RCode = dnswire.RCodeServFail // miss shape: SERVFAIL, no answer
	return resp
}

func testQuery(id uint16) *dnswire.Message {
	q := dnswire.NewQuery(id, dnswire.MustName("www.example.com."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	return q
}

func udpAddr(ip string) net.Addr {
	return &net.UDPAddr{IP: net.ParseIP(ip), Port: 5353}
}

func TestLimiterAllowsUnderBudgetAndDropsOver(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	be := &fakeBackend{}
	g := New(be, Config{ClientRPS: 2.5, Clock: clk})

	// Burst depth 5 (2×ClientRPS): the first five queries pass, the sixth
	// is limited.
	for i := 0; i < 5; i++ {
		if resp := g.HandleQueryFrom(testQuery(uint16(i)), udpAddr("192.0.2.1")); resp == nil || resp.Flags.Truncated {
			t.Fatalf("query %d not served: %v", i, resp)
		}
	}
	if resp := g.HandleQueryFrom(testQuery(6), udpAddr("192.0.2.1")); resp != nil {
		t.Fatalf("over-budget query served: %v", resp)
	}
	// A different client has its own bucket.
	if resp := g.HandleQueryFrom(testQuery(7), udpAddr("192.0.2.2")); resp == nil {
		t.Fatal("second client rate-limited by the first's bucket")
	}
	// Refill: 2.5 qps × 2 s = 5 tokens.
	clk.Advance(2 * time.Second)
	for i := 0; i < 5; i++ {
		if resp := g.HandleQueryFrom(testQuery(uint16(10+i)), udpAddr("192.0.2.1")); resp == nil || resp.Flags.Truncated {
			t.Fatalf("post-refill query %d not served: %v", i, resp)
		}
	}
	if resp := g.HandleQueryFrom(testQuery(20), udpAddr("192.0.2.1")); resp != nil {
		t.Fatal("refill exceeded the burst depth")
	}
}

// TestSlipRatio drives a drained bucket and checks the slip cadence:
// every Nth rate-limited query gets a minimal TC=1 reply, the rest drop.
func TestSlipRatio(t *testing.T) {
	const limited = 120
	for _, tc := range []struct {
		slip      int
		wantSlips int
	}{
		{slip: 0, wantSlips: 0},
		{slip: 1, wantSlips: limited},
		{slip: 2, wantSlips: limited / 2},
		{slip: 3, wantSlips: limited / 3},
		{slip: 10, wantSlips: limited / 10},
	} {
		t.Run(fmt.Sprintf("slip=%d", tc.slip), func(t *testing.T) {
			clk := simclock.NewVirtual(epoch)
			counters := metrics.NewSet[metrics.GuardCounters]()
			g := New(&fakeBackend{}, Config{
				ClientRPS: 0.5, Slip: tc.slip, // a one-token bucket
				Clock: clk, Counters: counters,
			})
			g.HandleQueryFrom(testQuery(0), udpAddr("192.0.2.9")) // drain the bucket

			slips := 0
			for i := 0; i < limited; i++ {
				resp := g.HandleQueryFrom(testQuery(uint16(i)), udpAddr("192.0.2.9"))
				if resp != nil {
					if !resp.Flags.Truncated {
						t.Fatalf("limited query %d served untruncated", i)
					}
					if len(resp.Answer) != 0 || len(resp.Authority) != 0 {
						t.Fatalf("slip reply %d not minimal: %v", i, resp)
					}
					slips++
				}
			}
			if slips != tc.wantSlips {
				t.Errorf("slips = %d, want %d", slips, tc.wantSlips)
			}
			gs := metrics.Snapshot(counters)
			if gs.Slips != uint64(tc.wantSlips) || gs.RateLimited != limited {
				t.Errorf("counters = %+v, want %d slips of %d limited", gs, tc.wantSlips, limited)
			}
		})
	}
}

// TestSlipResetOnAllow checks an allowed query restarts the slip cadence:
// the limited-streak counter is per streak, not forever.
func TestSlipResetOnAllow(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	g := New(&fakeBackend{}, Config{ClientRPS: 0.5, Slip: 2, Clock: clk}) // a one-token bucket
	addr := udpAddr("192.0.2.9")

	g.HandleQueryFrom(testQuery(0), addr) // drain
	if resp := g.HandleQueryFrom(testQuery(1), addr); resp != nil {
		t.Fatal("first limited query should drop (streak 1 of 2)")
	}
	clk.Advance(2 * time.Second) // refill one token
	if resp := g.HandleQueryFrom(testQuery(2), addr); resp == nil || resp.Flags.Truncated {
		t.Fatal("refilled query should be served")
	}
	// Streak restarted: the next limited query is 1 of 2 again → drop.
	if resp := g.HandleQueryFrom(testQuery(3), addr); resp != nil {
		t.Fatal("post-allow limited query should drop (streak restarted)")
	}
	if resp := g.HandleQueryFrom(testQuery(4), addr); resp == nil || !resp.Flags.Truncated {
		t.Fatal("second limited query in the streak should slip")
	}
}

func TestLimiterEvictsLRUAtBound(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	counters := metrics.NewSet[metrics.GuardCounters]()
	// MaxClients 64 → one slot per shard: every shard evicts on its
	// second distinct client.
	g := New(&fakeBackend{}, Config{ClientRPS: 100, MaxClients: 64, Clock: clk, Counters: counters})
	for i := 0; i < 1000; i++ {
		g.HandleQueryFrom(testQuery(uint16(i)), udpAddr(fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)))
	}
	if n := g.limiter.clientCount(); n > 64 {
		t.Errorf("limiter tracks %d clients, bound is 64", n)
	}
	if metrics.Snapshot(counters).ClientsEvicted == 0 {
		t.Error("no evictions counted despite exceeding the bound")
	}
}

func TestOverloadCacheOnlyAndShed(t *testing.T) {
	clk := simclock.NewVirtual(epoch)

	// Degraded mode off: overload arrivals are shed and counted.
	counters := metrics.NewSet[metrics.GuardCounters]()
	be := &fakeBackend{}
	g := New(be, Config{Clock: clk, Counters: counters})
	if resp := g.HandleOverload(testQuery(1)); resp != nil {
		t.Fatalf("shed query got a response: %v", resp)
	}
	if gs := metrics.Snapshot(counters); gs.Shed != 1 || be.cacheOnly != 0 {
		t.Errorf("shed=%d cacheOnly=%d, want 1 shed and no cache-only call", gs.Shed, be.cacheOnly)
	}

	// Degraded mode on: the query reaches the cache-only entry point and
	// the miss (SERVFAIL, no answer) is counted.
	counters = metrics.NewSet[metrics.GuardCounters]()
	be = &fakeBackend{}
	g = New(be, Config{CacheOnlyOnOverload: true, Clock: clk, Counters: counters})
	resp := g.HandleOverload(testQuery(2))
	if resp == nil || resp.RCode != dnswire.RCodeServFail {
		t.Fatalf("degraded answer = %v, want the backend's SERVFAIL", resp)
	}
	if be.cacheOnly != 1 || be.queries != 0 {
		t.Errorf("backend calls: cacheOnly=%d queries=%d, want 1/0", be.cacheOnly, be.queries)
	}
	if gs := metrics.Snapshot(counters); gs.CacheOnly != 1 || gs.CacheOnlyMiss != 1 || gs.Shed != 0 {
		t.Errorf("counters = %+v, want CacheOnly=1 CacheOnlyMiss=1 Shed=0", gs)
	}
}

// inlineFake is a fakeBackend that also has the inline entry: it settles
// "hit." names there and declines the rest. The plain "hit." query, offered
// with its key, it answers from packed bytes, as the caching server does
// from a reply kept on a cache entry.
type inlineFake struct {
	fakeBackend
	inline, packed int
}

// hitQuery is the query inlineFake answers inline; hitKey is its
// dnswire.QueryKey key and hitReply the reply it sends packed.
var (
	hitQuery         = dnswire.NewQuery(1, dnswire.MustName("hit."), dnswire.TypeA)
	hitKey, hitReply = func() ([]byte, []byte) {
		wire, err := hitQuery.Pack()
		if err != nil {
			panic(err)
		}
		key, _, _ := dnswire.QueryKey(wire, nil)
		reply, err := hitQuery.Reply().Pack()
		if err != nil {
			panic(err)
		}
		return key, reply
	}()
)

func (b *inlineFake) HandleInline(q *transport.Query, buf []byte) ([]byte, *dnswire.Message, bool) {
	if q.Key != nil && bytes.Equal(q.Key, hitKey) {
		b.packed++
		return append(buf[:0], hitReply...), nil, true
	}
	m, err := q.Message()
	if err != nil || m.Question[0].Name != "hit." {
		return nil, nil, false
	}
	b.inline++
	return nil, m.Reply(), true
}

// inlineQuery is q as the UDP read loop hands it to an inline entry once
// it has unpacked it.
func inlineQuery(q *dnswire.Message, from netip.AddrPort) *transport.Query {
	return &transport.Query{Msg: q, From: from}
}

// arrive delivers one query the way the UDP read loop does: the inline
// entry first — given the query unpacked, or, keyed, packed and probed —
// then, when that declines, the handler goroutine's HandleQuery, or the
// overload hook when no slot is free. A packed reply comes back unpacked.
func arrive(g *Guard, q *dnswire.Message, from string, slotFree, keyed bool) *dnswire.Message {
	query := inlineQuery(q, netip.AddrPortFrom(netip.MustParseAddr(from), 5353))
	if keyed {
		wire, err := q.Pack()
		if err != nil {
			panic(err)
		}
		var ok bool
		if query.Key, query.ID, ok = dnswire.QueryKey(wire, nil); !ok {
			panic("arrive: not a plain query")
		}
		query.Wire, query.Msg = wire, nil
	}
	packed, resp, done := g.HandleInline(query, make([]byte, 0, 512))
	if packed != nil {
		m, err := dnswire.Unpack(packed)
		if err != nil {
			panic(err)
		}
		return m
	}
	switch {
	case done:
		return resp
	case slotFree:
		return g.HandleQuery(q)
	}
	return g.HandleOverload(q)
}

// TestOverloadStillRateLimits: an abusive client gets no degraded-mode
// service either — its queries end at the inline entry and never reach
// the overload hook.
func TestOverloadStillRateLimits(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	be := &fakeBackend{}
	// ClientRPS 0.5: a one-token bucket.
	g := New(be, Config{ClientRPS: 0.5, CacheOnlyOnOverload: true, Clock: clk})
	arrive(g, testQuery(0), "192.0.2.1", false, false) // drains the bucket
	if resp := arrive(g, testQuery(1), "192.0.2.1", false, false); resp != nil {
		t.Fatalf("rate-limited overload query served: %v", resp)
	}
	if be.cacheOnly != 1 {
		t.Errorf("cache-only calls = %d, want 1 (the limited query must not reach the backend)", be.cacheOnly)
	}
}

// TestChargedOncePerQuery: a bucket k deep admits exactly k queries,
// whichever mix of the four exits they take — settled inline, sent from
// packed bytes, finished on a handler goroutine, finished by the overload
// hook. None of the exits charges the bucket a second time, and none
// skips the charge.
func TestChargedOncePerQuery(t *testing.T) {
	const k = 9
	type exit struct {
		q               *dnswire.Message
		slotFree, keyed bool
	}
	inline, packed := exit{hitQuery, true, false}, exit{hitQuery, true, true}
	handler, overload := exit{testQuery(2), true, false}, exit{testQuery(3), false, false}
	for _, tc := range []struct {
		name string
		exit func(i int) exit
	}{
		{"inline", func(int) exit { return inline }},
		{"packed", func(int) exit { return packed }},
		{"handler", func(int) exit { return handler }},
		{"overload", func(int) exit { return overload }},
		{"mixed", func(i int) exit { return []exit{inline, packed, handler, overload}[i%4] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counters := metrics.NewSet[metrics.GuardCounters]()
			be := &inlineFake{}
			g := New(be, Config{ClientRPS: k / 2.0, CacheOnlyOnOverload: true,
				Clock: simclock.NewVirtual(epoch), Counters: counters})
			served := 0
			for i := 0; i < 3*k; i++ {
				e := tc.exit(i)
				if resp := arrive(g, e.q, "192.0.2.1", e.slotFree, e.keyed); resp != nil {
					served++
				}
			}
			gs := metrics.Snapshot(counters)
			if served != k || gs.Allowed != k || gs.RateLimited != 2*k {
				t.Errorf("served %d, allowed %d, limited %d of %d queries; want %d, %d, %d",
					served, gs.Allowed, gs.RateLimited, 3*k, k, k, 2*k)
			}
			if reached := be.inline + be.packed + be.queries + be.cacheOnly; reached != k {
				t.Errorf("backend reached %d times (inline %d, packed %d, HandleQuery %d, cache-only %d), want %d",
					reached, be.inline, be.packed, be.queries, be.cacheOnly, k)
			}
		})
	}
}

// TestLimitedClientNeverPacked: a client over its bucket asking a name
// the backend answers from packed bytes is dropped or slipped exactly as
// when its query arrives unpacked — the same verdicts, the same TC=1
// reply, built from the unpacked question — and the packed bytes go only
// to the admitted queries.
func TestLimitedClientNeverPacked(t *testing.T) {
	var wires [2][]string
	var backends [2]*inlineFake
	for i, keyed := range []bool{false, true} {
		backends[i] = &inlineFake{}
		g := New(backends[i], Config{ClientRPS: 0.5, Slip: 2, Clock: simclock.NewVirtual(epoch)}) // a one-token bucket
		for range 6 {
			resp := arrive(g, hitQuery, "192.0.2.1", true, keyed)
			if resp == nil {
				wires[i] = append(wires[i], "dropped")
				continue
			}
			b, err := resp.Pack()
			if err != nil {
				t.Fatal(err)
			}
			wires[i] = append(wires[i], string(b))
		}
	}
	for j := range wires[0] {
		if wires[0][j] != wires[1][j] {
			t.Errorf("query %d: unpacked arrival answered %q, keyed arrival %q", j, wires[0][j], wires[1][j])
		}
	}
	if wires[1][1] != "dropped" || wires[1][2] == "dropped" {
		t.Errorf("verdicts %q, want the second dropped and the third slipped", wires[1])
	}
	if be := backends[1]; be.packed != 1 || be.inline != 0 {
		t.Errorf("packed bytes sent %d times, inline answers %d; want the one admitted query packed", be.packed, be.inline)
	}
}

func TestGuardDisabledIsTransparent(t *testing.T) {
	be := &fakeBackend{}
	g := New(be, Config{}) // no rate limit, no degraded mode
	for i := 0; i < 100; i++ {
		if resp := g.HandleQueryFrom(testQuery(uint16(i)), udpAddr("192.0.2.1")); resp == nil || resp.Flags.Truncated {
			t.Fatalf("query %d not passed through: %v", i, resp)
		}
	}
	if be.queries != 100 {
		t.Errorf("backend saw %d queries, want all 100", be.queries)
	}
}

// TestClientAddrIdentity: a client is its IP. Two ports of one address
// share a bucket, and a source that is not a *net.UDPAddr — a TCP
// connection's, a unix socket's, none at all — is charged to no bucket.
func TestClientAddrIdentity(t *testing.T) {
	g := New(&fakeBackend{}, Config{ClientRPS: 0.5, Clock: simclock.NewVirtual(epoch)}) // a one-token bucket
	if resp := g.HandleQueryFrom(testQuery(1), &net.UDPAddr{IP: net.ParseIP("192.0.2.7"), Port: 1111}); resp == nil {
		t.Fatal("first query from a fresh client dropped")
	}
	if resp := g.HandleQueryFrom(testQuery(2), &net.UDPAddr{IP: net.ParseIP("192.0.2.7"), Port: 2222}); resp != nil {
		t.Errorf("same IP, different port got a fresh bucket: %v", resp)
	}
	for _, from := range []net.Addr{
		&net.TCPAddr{IP: net.ParseIP("192.0.2.7"), Port: 3333},
		&net.UnixAddr{Name: "@x", Net: "unix"},
		nil,
	} {
		for i := 0; i < 3; i++ {
			if resp := g.HandleQueryFrom(testQuery(uint16(10+i)), from); resp == nil || resp.Flags.Truncated {
				t.Errorf("source %v: query %d limited; a source that is not UDP must fail open", from, i)
			}
		}
	}
}

// TestHandleQueryFromIsInlineThenQuery: HandleQueryFrom is HandleInline
// followed, while the query is still open, by HandleQuery — the same
// responses and the same GuardCounters, source by source and verdict by
// verdict, on twin guards.
func TestHandleQueryFromIsInlineThenQuery(t *testing.T) {
	peer := netip.MustParseAddr("10.9.0.2")
	sources := []struct {
		name    string
		from    net.Addr
		ap      netip.AddrPort
		limited uint64 // of the eight queries; every second one slips
	}{
		{"IPv4", &net.UDPAddr{IP: net.IPv4(192, 0, 2, 1).To4(), Port: 5353}, netip.MustParseAddrPort("192.0.2.1:5353"), 6},
		{"IPv4-mapped IPv6", &net.UDPAddr{IP: net.ParseIP("::ffff:192.0.2.1"), Port: 5353}, netip.MustParseAddrPort("[::ffff:192.0.2.1]:5353"), 6},
		{"IPv6", &net.UDPAddr{IP: net.ParseIP("2001:db8::1"), Port: 5353}, netip.MustParseAddrPort("[2001:db8::1]:5353"), 6},
		{"nil", nil, netip.AddrPort{}, 0},
		{"peer-exempt", &net.UDPAddr{IP: peer.AsSlice(), Port: 5353}, netip.AddrPortFrom(peer, 5353), 0},
	}
	wire := func(m *dnswire.Message) string {
		if m == nil {
			return "dropped"
		}
		b, err := m.Pack()
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		return string(b)
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			newGuard := func() (*Guard, *metrics.GuardCounters) {
				ctr := metrics.NewSet[metrics.GuardCounters]()
				return New(&inlineFake{}, Config{ClientRPS: 1, Slip: 2, Clock: simclock.NewVirtual(epoch),
					Counters: ctr, PeerExempt: func(a netip.Addr) bool { return a == peer }}), ctr
			}
			a, actr := newGuard()
			b, bctr := newGuard()
			// Two-token bucket: allowed, allowed, dropped, slipped, …
			// (the nil source and the peer are allowed throughout), with
			// queries the backend settles inline beside ones it does not.
			for i := 0; i < 8; i++ {
				q := testQuery(uint16(i))
				if i%2 == 1 {
					q = dnswire.NewQuery(uint16(i), dnswire.MustName("hit."), dnswire.TypeA)
				}
				got := a.HandleQueryFrom(q, src.from)
				_, want, done := b.HandleInline(inlineQuery(q, src.ap), nil)
				if !done {
					want = b.HandleQuery(q)
				}
				if wire(got) != wire(want) {
					t.Errorf("query %d: HandleQueryFrom answered %v, HandleInline+HandleQuery %v", i, got, want)
				}
			}
			ga, gb := metrics.Snapshot(actr), metrics.Snapshot(bctr)
			if ga != gb {
				t.Errorf("counters diverge: HandleQueryFrom %+v, HandleInline+HandleQuery %+v", ga, gb)
			}
			if ga.RateLimited != src.limited || ga.Slips != src.limited/2 {
				t.Errorf("limited %d, slipped %d; want %d and %d", ga.RateLimited, ga.Slips, src.limited, src.limited/2)
			}
		})
	}
}

// TestPeerExemptBypassesRateLimit pins the mesh integration contract:
// handshake-confirmed fleet peers are never rate-limited, slipped, or
// even charged a bucket, while strangers — including ones sharing traffic
// volume with peers — stay fully limited.
func TestPeerExemptBypassesRateLimit(t *testing.T) {
	peerA := netip.MustParseAddr("10.9.0.2")
	peerB := netip.MustParseAddr("10.9.0.3")
	exempt := func(a netip.Addr) bool { return a == peerA || a == peerB }

	cases := []struct {
		name    string
		src     string
		exempt  bool
		queries int
	}{
		{"confirmed peer far over budget", "10.9.0.2", true, 50},
		{"second confirmed peer", "10.9.0.3", true, 50},
		{"stranger over budget", "192.0.2.9", false, 50},
		{"stranger adjacent to peer subnet", "10.9.0.4", false, 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := simclock.NewVirtual(epoch)
			be := &fakeBackend{}
			ctr := metrics.NewSet[metrics.GuardCounters]()
			g := New(be, Config{ClientRPS: 2, Slip: 2, Clock: clk, Counters: ctr, PeerExempt: exempt})

			served, limited := 0, 0
			for i := 0; i < tc.queries; i++ {
				resp := g.HandleQueryFrom(testQuery(uint16(i)), udpAddr(tc.src))
				switch {
				case resp == nil || resp.Flags.Truncated:
					limited++
				default:
					served++
				}
			}
			if tc.exempt {
				if limited != 0 {
					t.Errorf("peer had %d of %d queries limited/slipped, want 0", limited, tc.queries)
				}
				if got := metrics.Load(&ctr.PeerExempt); got != uint64(tc.queries) {
					t.Errorf("PeerExempt counter = %d, want %d", got, tc.queries)
				}
				if metrics.Load(&ctr.RateLimited) != 0 {
					t.Errorf("peer traffic charged the limiter: RateLimited = %d", metrics.Load(&ctr.RateLimited))
				}
			} else {
				if limited == 0 {
					t.Errorf("stranger sent %d queries over a 4-token bucket and was never limited", tc.queries)
				}
				if served != 4 {
					t.Errorf("stranger had %d served, want exactly the 4-token burst", served)
				}
				if metrics.Load(&ctr.PeerExempt) != 0 {
					t.Errorf("stranger counted as peer-exempt %d times", metrics.Load(&ctr.PeerExempt))
				}
			}
		})
	}
}

// TestPeerExemptDoesNotShareBucket: a peer's volume must not pollute the
// bucket of a NATed stranger behind the same address family — concretely,
// heavy peer traffic followed by stranger traffic from a different IP
// leaves the stranger's own bucket untouched.
func TestPeerExemptDoesNotShareBucket(t *testing.T) {
	peer := netip.MustParseAddr("10.9.0.2")
	clk := simclock.NewVirtual(epoch)
	be := &fakeBackend{}
	g := New(be, Config{ClientRPS: 2, Clock: clk,
		PeerExempt: func(a netip.Addr) bool { return a == peer }})

	for i := 0; i < 100; i++ {
		if resp := g.HandleQueryFrom(testQuery(uint16(i)), udpAddr("10.9.0.2")); resp == nil {
			t.Fatalf("peer query %d dropped", i)
		}
	}
	// The stranger still has its full burst available.
	for i := 0; i < 4; i++ {
		if resp := g.HandleQueryFrom(testQuery(uint16(200+i)), udpAddr("192.0.2.1")); resp == nil {
			t.Fatalf("stranger query %d limited despite a fresh bucket", i)
		}
	}
}
