// Package integration exercises the full stack end to end over real
// sockets: authoritative servers serving master-file zones over UDP and
// TCP, the resilient caching server resolving iteratively across them,
// and a stub client talking to the caching server — the complete Figure 1
// deployment from the paper, on localhost.
package integration

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"resilientdns/internal/authserver"
	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

// stack is a localhost DNS deployment: root, TLD, and leaf zone servers,
// a caching server, and the address a stub client reaches it at.
type stack struct {
	cs     *core.CachingServer
	csAddr transport.Addr
	close  []func()
}

// ask plays the stub client: one recursion-desired query to the caching
// server over UDP, repeated over TCP when the answer comes back
// truncated. The transport checks that the response carries the query's
// ID and echoes its question.
func (s *stack) ask(t *testing.T, name string, qtype dnswire.Type) *dnswire.Message {
	t.Helper()
	var id [2]byte
	if _, err := crand.Read(id[:]); err != nil {
		t.Fatalf("drawing query ID: %v", err)
	}
	q := dnswire.NewQuery(binary.BigEndian.Uint16(id[:]), dnswire.MustName(name), qtype)
	q.Flags.RecursionDesired = true
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	client := &transport.UDPWithTCPFallback{
		UDP: transport.UDP{Timeout: 2 * time.Second},
		TCP: transport.TCP{Timeout: 2 * time.Second},
	}
	resp, err := client.Exchange(ctx, s.csAddr, q)
	if err != nil {
		t.Fatalf("%s %s: %v", name, qtype, err)
	}
	return resp
}

// answers asks for name's records of T's type, requires NOERROR and
// returns them from the answer section (a CNAME chain ahead of them is
// skipped).
func answers[T dnswire.RData](t *testing.T, s *stack, name string) []T {
	t.Helper()
	var zero T
	qtype := zero.Type()
	resp := s.ask(t, name, qtype)
	if resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("%s %s: rcode %s, want NOERROR", name, qtype, resp.RCode)
	}
	var out []T
	for _, rr := range resp.Answer {
		if d, ok := rr.Data.(T); ok {
			out = append(out, d)
		}
	}
	return out
}

// txtStrings flattens the TXT answers for name.
func txtStrings(t *testing.T, s *stack, name string) []string {
	t.Helper()
	var out []string
	for _, txt := range answers[dnswire.TXT](t, s, name) {
		out = append(out, txt.Strings...)
	}
	return out
}

func (s *stack) Close() {
	for i := len(s.close) - 1; i >= 0; i-- {
		s.close[i]()
	}
}

// placeholder IPs inside zone data; AddrMapper routes them to real ports.
const (
	rootIP = "10.1.0.1"
	tldIP  = "10.1.0.2"
	leafIP = "10.1.0.3"
)

func startStack(t *testing.T, csConfig core.Config) *stack {
	t.Helper()
	st := &stack{}

	mustZone := func(text string, origin dnswire.Name) *zone.Zone {
		z, err := zone.ParseString(text, origin)
		if err != nil {
			t.Fatalf("zone %s: %v", origin, err)
		}
		return z
	}

	rootZone := mustZone(`
@	518400	IN	NS	a.root-servers.net.
a.root-servers.net.	518400	IN	A	`+rootIP+`
test.	172800	IN	NS	ns1.test.
ns1.test.	172800	IN	A	`+tldIP+`
`, dnswire.Root)
	tldZone := mustZone(`
@	172800	IN	NS	ns1.test.
ns1.test.	172800	IN	A	`+tldIP+`
corp.test.	3600	IN	NS	ns1.corp.test.
ns1.corp.test.	3600	IN	A	`+leafIP+`
`, dnswire.MustName("test."))
	// The leaf zone includes two large TXT RRsets: big (~1.4 KB) is
	// truncated only to a client that advertises no EDNS0, huge (~5.5 KB)
	// even to one that advertises 4096 — so both legs' TCP fallback runs.
	var big strings.Builder
	big.WriteString(`
@	3600	IN	NS	ns1.corp.test.
ns1	3600	IN	A	` + leafIP + `
www	300	IN	A	192.0.2.80
alias	300	IN	CNAME	www
mail	300	IN	MX	10 www.corp.test.
`)
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&big, "big\t300\tIN\tTXT\t\"%02d-%s\"\n", i, strings.Repeat("x", 60))
	}
	for i := 0; i < 80; i++ {
		fmt.Fprintf(&big, "huge\t300\tIN\tTXT\t\"%02d-%s\"\n", i, strings.Repeat("x", 60))
	}
	leafZone := mustZone(big.String(), dnswire.MustName("corp.test."))

	rootAddr := st.listenPair(t, authserver.New(rootZone))
	tldAddr := st.listenPair(t, authserver.New(tldZone))
	leafAddr := st.listenPair(t, authserver.New(leafZone))
	portOf := map[string]string{rootIP: rootAddr, tldIP: tldAddr, leafIP: leafAddr}

	csConfig.Transport = &transport.UDPWithTCPFallback{
		UDP: transport.UDP{Timeout: time.Second},
		TCP: transport.TCP{Timeout: time.Second},
	}
	csConfig.RootHints = []core.ServerRef{{
		Host: dnswire.MustName("a.root-servers.net."),
		Addr: transport.Addr(rootAddr),
	}}
	csConfig.AddrMapper = func(a netip.Addr) transport.Addr {
		if real, ok := portOf[a.String()]; ok {
			return transport.Addr(real)
		}
		return transport.Addr(a.String() + ":53")
	}
	cs, err := core.NewCachingServer(csConfig)
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}
	st.cs = cs

	st.csAddr = transport.Addr(st.listenPair(t, cs))
	return st
}

// listenPair serves h on one localhost port over both UDP and TCP
// (transport.ListenPair).
func (s *stack) listenPair(t *testing.T, h transport.Handler) string {
	t.Helper()
	udp, tcp := &transport.UDPServer{Handler: h}, &transport.TCPServer{Handler: h}
	addr, err := transport.ListenPair(udp, tcp, netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s.close = append(s.close, func() { udp.Close() }, func() { tcp.Close() })
	return addr
}

func TestEndToEndResolution(t *testing.T) {
	st := startStack(t, core.Config{RefreshTTL: true})
	defer st.Close()

	addrs := answers[dnswire.A](t, st, "www.corp.test.")
	if len(addrs) != 1 || addrs[0].Addr != netip.MustParseAddr("192.0.2.80") {
		t.Errorf("addrs = %v", addrs)
	}
}

func TestEndToEndCNAME(t *testing.T) {
	st := startStack(t, core.Config{})
	defer st.Close()

	addrs := answers[dnswire.A](t, st, "alias.corp.test.")
	if len(addrs) != 1 {
		t.Errorf("addrs = %v", addrs)
	}
}

func TestEndToEndMX(t *testing.T) {
	st := startStack(t, core.Config{})
	defer st.Close()

	mx := answers[dnswire.MX](t, st, "mail.corp.test.")
	if len(mx) != 1 || mx[0].Host != "www.corp.test." {
		t.Errorf("mx = %v", mx)
	}
}

func TestEndToEndNXDomain(t *testing.T) {
	st := startStack(t, core.Config{})
	defer st.Close()

	resp := st.ask(t, "missing.corp.test.", dnswire.TypeA)
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("lookup of missing name: rcode %s, want NXDOMAIN", resp.RCode)
	}
}

func TestEndToEndTCPFallbackOnTruncation(t *testing.T) {
	st := startStack(t, core.Config{})
	defer st.Close()

	// The big TXT RRset exceeds 512 bytes, so the answer to the stub (no
	// EDNS0) is truncated and its retry over TCP must still get it; huge
	// exceeds the 4096 bytes the caching server advertises upstream, so it
	// must fall back to TCP toward the authoritative server as well.
	txts := txtStrings(t, st, "big.corp.test.")
	if len(txts) != 20 {
		t.Errorf("got %d TXT strings, want 20", len(txts))
	}
	if txts := txtStrings(t, st, "huge.corp.test."); len(txts) != 80 {
		t.Errorf("got %d huge TXT strings, want 80", len(txts))
	}
}

func TestEndToEndCachingReducesUpstreamQueries(t *testing.T) {
	st := startStack(t, core.Config{RefreshTTL: true})
	defer st.Close()

	if got := answers[dnswire.A](t, st, "www.corp.test."); len(got) == 0 {
		t.Fatal("first lookup: no addresses")
	}
	before := st.cs.Stats().QueriesOut
	for i := 0; i < 5; i++ {
		if got := answers[dnswire.A](t, st, "www.corp.test."); len(got) == 0 {
			t.Fatal("repeat lookup: no addresses")
		}
	}
	if after := st.cs.Stats().QueriesOut; after != before {
		t.Errorf("cached lookups sent %d upstream queries", after-before)
	}
}

func TestEndToEndRenewalLoopLive(t *testing.T) {
	// Run the real-time renewal loop against real sockets with a
	// super-short renewal lead: resolve once, then wait for the IRR of
	// corp.test (TTL 3600, so no natural expiry) — instead verify the
	// loop runs without deadlock while queries continue.
	st := startStack(t, core.Config{
		RefreshTTL: true,
		Renewal:    core.LRU{C: 2},
	})
	defer st.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go st.cs.RunRenewalLoop(ctx)

	for i := 0; i < 3; i++ {
		if got := answers[dnswire.A](t, st, "www.corp.test."); len(got) == 0 {
			t.Fatalf("lookup %d: no addresses", i)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestEndToEndEDNS0AvoidsTCP(t *testing.T) {
	// Every upstream query advertises EDNS0, so the big TXT answer fits in
	// one UDP datagram from the authoritative server and no truncation
	// occurs on that leg.
	st := startStack(t, core.Config{})
	defer st.Close()

	txts := txtStrings(t, st, "big.corp.test.")
	if len(txts) != 20 {
		t.Errorf("got %d TXT strings, want 20", len(txts))
	}
}
