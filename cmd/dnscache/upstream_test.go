package main

import (
	"flag"
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

// TestUpstreamAddr: learned name-server addresses become dialable
// host:port strings in every family — an IPv6 address in brackets, which
// "%s:%d" formatting got wrong.
func TestUpstreamAddr(t *testing.T) {
	mapper := upstreamAddr(53)
	for addr, want := range map[string]transport.Addr{
		"192.0.2.1":        "192.0.2.1:53",
		"2001:db8::1":      "[2001:db8::1]:53",
		"::ffff:192.0.2.1": "[::ffff:192.0.2.1]:53",
	} {
		if got := mapper(netip.MustParseAddr(addr)); got != want {
			t.Errorf("%s maps to %q, want %q", addr, got, want)
		}
	}
}

// parseArgs runs parseFlags over args on a fresh flag set.
func parseArgs(args ...string) (*options, error) {
	return parseFlags(flag.NewFlagSet("dnscache", flag.ContinueOnError), args)
}

// TestRunRejectsUpstreamPort: a port no name server can listen on fails
// start-up instead of failing every fetch.
func TestRunRejectsUpstreamPort(t *testing.T) {
	for _, port := range []string{"0", "70000", "-1"} {
		_, err := parseArgs("-listen", "127.0.0.1:0", "-root", "127.0.0.1:53", "-upstream-port", port)
		if err == nil || !strings.Contains(err.Error(), "-upstream-port") {
			t.Errorf("-upstream-port %s: parseFlags = %v, want an -upstream-port error", port, err)
		}
	}
}

// TestRunRejectsMeshAddrs: mesh addresses are IP:port literals with a
// specified IP. A wildcard -mesh-listen would make the node hash
// ownership under an address no peer uses, so it fails start-up as a
// flag error, before any socket is bound; so does a host-name peer.
func TestRunRejectsMeshAddrs(t *testing.T) {
	for _, tc := range []struct{ flag, listen, peers string }{
		{"-mesh-listen", ":0", ""},
		{"-mesh-listen", "0.0.0.0:0", ""},
		{"-mesh-listen", "localhost:0", ""},
		{"-mesh-listen", "[fe80::1%lo]:7946", ""},
		{"-mesh-peers", "127.0.0.1:0", "127.0.0.1:7947,localhost:7948"},
	} {
		_, err := parseArgs("-listen", "127.0.0.1:0", "-root", "127.0.0.1:53",
			"-mesh-key", "k", "-mesh-listen", tc.listen, "-mesh-peers", tc.peers)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("-mesh-listen %q -mesh-peers %q: parseFlags = %v, want a %s error", tc.listen, tc.peers, err, tc.flag)
		}
	}
}

// TestRunRejectsHostAddrs: -listen, -root and -debug-addr take IP:port
// literals (":port" for every address) and nothing resolves a name, so a
// host name or a zoned IPv6 address fails start-up as a flag error,
// before any socket is bound.
func TestRunRejectsHostAddrs(t *testing.T) {
	for _, tc := range []struct{ flag, listen, root, debug string }{
		{"-listen", "localhost:0", "127.0.0.1:53", ""},
		{"-listen", "[fe80::1%lo]:0", "127.0.0.1:53", ""},
		{"-root", "127.0.0.1:0", "127.0.0.1:53,a.root-servers.net:53", ""},
		{"-root", "127.0.0.1:0", "[fe80::1%lo]:53", ""},
		{"-debug-addr", "127.0.0.1:0", "127.0.0.1:53", "localhost:0"},
	} {
		_, err := parseArgs("-listen", tc.listen, "-root", tc.root, "-debug-addr", tc.debug)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
			t.Errorf("-listen %q -root %q -debug-addr %q: parseFlags = %v, want a %s error", tc.listen, tc.root, tc.debug, err, tc.flag)
		}
	}
}

// TestResolvesThroughIPv6OnlyGlue resolves, over real sockets and through
// dnscache's own address mapping, a name whose zone is delegated to a
// server that has only AAAA glue, at ::1.
func TestResolvesThroughIPv6OnlyGlue(t *testing.T) {
	mustZone := func(origin, text string) *zone.Zone {
		z, err := zone.ParseString(text, dnswire.MustName(origin))
		if err != nil {
			t.Fatalf("zone %s: %v", origin, err)
		}
		return z
	}
	child := &transport.UDPServer{Handler: authserver.New(mustZone("v6only.example.", `
v6only.example. 3600 IN SOA ns.v6only.example. admin.v6only.example. 1 3600 600 86400 300
v6only.example. 3600 IN NS ns.v6only.example.
ns.v6only.example. 3600 IN AAAA ::1
www.v6only.example. 300 IN A 192.0.2.80
`))}
	childAddr, err := child.Listen("[::1]:0")
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	defer child.Close()
	root := &transport.UDPServer{Handler: authserver.New(mustZone(".", `
. 3600 IN SOA a.root. admin. 1 3600 600 86400 3600
. 3600 IN NS a.root.
a.root. 3600 IN A 127.0.0.1
v6only.example. 3600 IN NS ns.v6only.example.
ns.v6only.example. 3600 IN AAAA ::1
`))}
	rootAddr, err := root.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()

	cs, err := core.NewCachingServer(core.Config{
		Transport:  &transport.UDP{Timeout: 2 * time.Second},
		RootHints:  []core.ServerRef{{Host: "root0.hint.", Addr: transport.Addr(rootAddr)}},
		AddrMapper: upstreamAddr(netip.MustParseAddrPort(childAddr).Port()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	q := dnswire.NewQuery(1, dnswire.MustName("www.v6only.example."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	resp := cs.HandleQuery(q)
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 ||
		resp.Answer[0].Data.(dnswire.A).Addr != netip.MustParseAddr("192.0.2.80") {
		t.Errorf("answer through AAAA-only glue:\n%v", resp)
	}
}
