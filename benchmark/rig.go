package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"

	"resilientdns/internal/authserver"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

// The rig is the authoritative side the benchmark owns: a three-level
// hierarchy (root, TLDs, SLD zones) whose levels listen on their own
// loopback aliases and one shared port, so dnscache walks real referrals
// with its -root/-upstream-port flags.
const (
	numTLDs       = 4
	numSLDs       = 400
	numSLDServers = 8
)

// Levels of the hierarchy, for per-level counting and blackout.
const (
	levelRoot = iota
	levelTLD
	levelSLD
	numLevels
)

var levelNames = [numLevels]string{"root", "tld", "sld"}

// rigSpec is everything a rig is built from; the same spec gives the same
// zones in the auth child and in the in-process replay.
type rigSpec struct {
	Seed int64
	// TLDTTL and SLDTTL are the infrastructure-record TTLs (NS + glue) of
	// the TLD and SLD delegations; DataTTL is the leaf A record TTL.
	TLDTTL, SLDTTL, DataTTL uint32
}

// rigServer is one listening address of the rig.
type rigServer struct {
	addr    netip.Addr
	level   int
	handler transport.Handler
}

// rig holds the generated hierarchy, its handlers and their counters.
type rig struct {
	spec    rigSpec
	slds    []dnswire.Name // the 400 SLD apexes, in seeded order
	servers []rigServer

	dark     [numLevels]atomic.Bool
	received [numLevels]atomic.Uint64
	dropped  atomic.Uint64
	answered atomic.Uint64
}

// rigCounts is the counter snapshot the auth child reports.
type rigCounts struct {
	Root     uint64 `json:"root"`
	TLD      uint64 `json:"tld"`
	SLD      uint64 `json:"sld"`
	Dropped  uint64 `json:"dropped"`
	Answered uint64 `json:"answered"`
}

func (c rigCounts) received() uint64 { return c.Root + c.TLD + c.SLD }

func (c rigCounts) sub(o rigCounts) rigCounts {
	return rigCounts{c.Root - o.Root, c.TLD - o.TLD, c.SLD - o.SLD, c.Dropped - o.Dropped, c.Answered - o.Answered}
}

func (c rigCounts) add(o rigCounts) rigCounts {
	return rigCounts{c.Root + o.Root, c.TLD + o.TLD, c.SLD + o.SLD, c.Dropped + o.Dropped, c.Answered + o.Answered}
}

func (r *rig) counts() rigCounts {
	return rigCounts{
		Root:     r.received[levelRoot].Load(),
		TLD:      r.received[levelTLD].Load(),
		SLD:      r.received[levelSLD].Load(),
		Dropped:  r.dropped.Load(),
		Answered: r.answered.Load(),
	}
}

var (
	rootAddr = netip.MustParseAddr("127.0.0.2")
	rootNS   = dnswire.MustName("ns.rootsrv.")
)

func tldAddr(i int) netip.Addr { return netip.AddrFrom4([4]byte{127, 0, 1, byte(i + 1)}) }
func sldAddr(j int) netip.Addr { return netip.AddrFrom4([4]byte{127, 0, 2, byte(j + 1)}) }

func rr(name dnswire.Name, ttl uint32, data dnswire.RData) dnswire.RR {
	return dnswire.RR{Name: name, Class: dnswire.ClassIN, TTL: ttl, Data: data}
}

// newZone returns a zone with its SOA, its single apex NS and that
// server's address, all at the zone's infrastructure TTL.
func newZone(origin, ns dnswire.Name, addr netip.Addr, ttl uint32) *zone.Zone {
	z := zone.New(origin)
	z.MustAdd(rr(origin, ttl, dnswire.SOA{MName: ns, RName: dnswire.MustName("hostmaster." + string(ns)),
		Serial: 1, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 5}))
	z.MustAdd(rr(origin, ttl, dnswire.NS{Host: ns}))
	z.MustAdd(rr(ns, ttl, dnswire.A{Addr: addr}))
	return z
}

// seededLabels returns n distinct labels made of prefix and random
// base-36 digits.
func seededLabels(rng *rand.Rand, prefix string, digits, n int) []string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		b := []byte(prefix)
		for i := 0; i < digits; i++ {
			b = append(b, alphabet[rng.Intn(len(alphabet))])
		}
		if s := string(b); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// newRig builds the hierarchy: 1 root, 4 TLDs, 400 SLD zones spread over
// 8 SLD servers.
func newRig(spec rigSpec) *rig {
	r := &rig{spec: spec}
	rng := rand.New(rand.NewSource(spec.Seed))

	root := newZone(dnswire.Root, rootNS, rootAddr, 86400)
	tldNames := seededLabels(rng, "t", 3, numTLDs)
	tlds := make([]*zone.Zone, numTLDs)
	for i, label := range tldNames {
		origin := dnswire.MustName(label + ".")
		ns := dnswire.MustName("ns." + string(origin))
		tlds[i] = newZone(origin, ns, tldAddr(i), spec.TLDTTL)
		root.MustAdd(rr(origin, spec.TLDTTL, dnswire.NS{Host: ns}))
		root.MustAdd(rr(ns, spec.TLDTTL, dnswire.A{Addr: tldAddr(i)}))
	}

	sldZones := make([][]*zone.Zone, numSLDServers)
	for k, label := range seededLabels(rng, "z", 5, numSLDs) {
		tld := tlds[k%numTLDs]
		origin := dnswire.MustName(label + "." + string(tld.Origin()))
		ns := dnswire.MustName("ns." + string(origin))
		j := k % numSLDServers
		sldZones[j] = append(sldZones[j], newZone(origin, ns, sldAddr(j), spec.SLDTTL))
		tld.MustAdd(rr(origin, spec.SLDTTL, dnswire.NS{Host: ns}))
		tld.MustAdd(rr(ns, spec.SLDTTL, dnswire.A{Addr: sldAddr(j)}))
		r.slds = append(r.slds, origin)
	}

	add := func(addr netip.Addr, level int, h transport.Handler) {
		r.servers = append(r.servers, rigServer{addr, level, &levelHandler{rig: r, level: level, inner: h}})
	}
	add(rootAddr, levelRoot, authserver.New(root))
	for i, z := range tlds {
		add(tldAddr(i), levelTLD, authserver.New(z))
	}
	for j, zones := range sldZones {
		add(sldAddr(j), levelSLD, newLeafHandler(zones, spec.DataTTL))
	}
	return r
}

// levelHandler counts the queries a level receives and drops them while
// the level is blacked out: a nil response makes UDPServer send nothing,
// which is what a DoS-ed server looks like to the resolver.
type levelHandler struct {
	rig   *rig
	level int
	inner transport.Handler
}

func (h *levelHandler) HandleQuery(q *dnswire.Message) *dnswire.Message {
	h.rig.received[h.level].Add(1)
	if h.rig.dark[h.level].Load() {
		h.rig.dropped.Add(1)
		return nil
	}
	h.rig.answered.Add(1)
	return h.inner.HandleQuery(q)
}

// leafHandler serves SLD zones. Host names h<N>.<sld> are synthesised,
// with an A record derived from the name, so a miss workload never runs
// out of unique names and the generator can check the rdata it gets
// back; everything else (apex NS for renewals, NXDOMAIN for the flood's
// random prefixes) is answered from the zone by authserver.
type leafHandler struct {
	auth    *authserver.Server
	zones   map[dnswire.Name]*zone.Zone
	dataTTL uint32
}

func newLeafHandler(zones []*zone.Zone, dataTTL uint32) *leafHandler {
	h := &leafHandler{auth: authserver.New(zones...), zones: make(map[dnswire.Name]*zone.Zone, len(zones)), dataTTL: dataTTL}
	for _, z := range zones {
		h.zones[z.Origin()] = z
	}
	return h
}

func (h *leafHandler) HandleQuery(q *dnswire.Message) *dnswire.Message {
	if len(q.Question) != 1 || q.Opcode != dnswire.OpcodeQuery {
		return h.auth.HandleQuery(q)
	}
	question := q.Question[0]
	z := h.zones[question.Name.Parent()]
	if z == nil || question.Type != dnswire.TypeA || question.Class != dnswire.ClassIN || !isHostName(question.Name) {
		return h.auth.HandleQuery(q)
	}
	resp := q.Reply()
	resp.Flags.Authoritative = true
	resp.Answer = []dnswire.RR{rr(question.Name, h.dataTTL, dnswire.A{Addr: hostAddr(question.Name)})}
	// Like a deployed server (and authserver's attachIRRs): the zone's own
	// NS and glue ride along, which is what TTL refresh feeds on.
	resp.Authority = z.ApexNS()
	for _, ns := range resp.Authority {
		resp.Additional = append(resp.Additional, z.RRSet(ns.Data.(dnswire.NS).Host, dnswire.TypeA)...)
	}
	return resp
}

// isHostName reports whether the first label of n is h<digits>.
func isHostName(n dnswire.Name) bool {
	s := string(n)
	dot := strings.IndexByte(s, '.')
	if dot < 2 || s[0] != 'h' {
		return false
	}
	for _, c := range s[1:dot] {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// hostAddr derives the A record of a synthesised host from its name; the
// rig serves it and the generator checks replies against it.
func hostAddr(n dnswire.Name) netip.Addr {
	s := uint32(2166136261) // FNV-1a, inline: this runs once per query on both sides
	for i := 0; i < len(n); i++ {
		s = (s ^ uint32(n[i])) * 16777619
	}
	return netip.AddrFrom4([4]byte{10, byte(s >> 16), byte(s >> 8), byte(s)})
}

// blackout makes exactly the comma-separated levels go silent.
func (r *rig) blackout(levels string) {
	for l, name := range levelNames {
		dark := false
		for _, want := range strings.Split(levels, ",") {
			dark = dark || want == name
		}
		r.dark[l].Store(dark)
	}
}

// listen binds every rig address to one shared ephemeral port and starts
// serving. The port is chosen by the first bind; if another address has
// it taken, the whole set is retried on a new port.
func (r *rig) listen() (port int, closeAll func(), err error) {
	for attempt := 0; attempt < 20; attempt++ {
		var servers []*transport.UDPServer
		closeAll = func() {
			for _, s := range servers {
				s.Close()
			}
		}
		port = 0
		for _, rs := range r.servers {
			srv := &transport.UDPServer{Handler: rs.handler}
			bound, lerr := srv.Listen(netip.AddrPortFrom(rs.addr, uint16(port)).String())
			if lerr != nil {
				err = lerr
				break
			}
			servers = append(servers, srv)
			if port == 0 {
				ap, perr := netip.ParseAddrPort(bound)
				if perr != nil {
					closeAll()
					return 0, nil, perr
				}
				port = int(ap.Port())
			}
		}
		if len(servers) == len(r.servers) {
			return port, closeAll, nil
		}
		closeAll()
	}
	return 0, nil, fmt.Errorf("rig: no shared port found on the loopback aliases: %w", err)
}

// pipe returns the rig as an in-process transport keyed by the addresses
// dnscache would dial, for the per-layer replay.
func (r *rig) pipe(port int) *transport.Pipe {
	p := &transport.Pipe{Handlers: make(map[transport.Addr]transport.Handler, len(r.servers))}
	for _, rs := range r.servers {
		p.Handlers[transport.Addr(netip.AddrPortFrom(rs.addr, uint16(port)).String())] = rs.handler
	}
	return p
}

// serveAuth is the -role=auth child: it serves the rig, announces its
// port, then obeys one-line commands on stdin until stdin closes — so
// the child can never outlive the benchmark that started it.
//
//	dark root,tld   black out exactly the listed levels (none: all light)
//	counts          print the counters as one JSON line
func serveAuth(spec rigSpec, in io.Reader, out io.Writer) error {
	r := newRig(spec)
	port, closeAll, err := r.listen()
	if err != nil {
		return err
	}
	defer closeAll()
	fmt.Fprintf(out, "READY %d\n", port)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "dark":
			r.blackout(strings.Join(fields[1:], ","))
			fmt.Fprintln(out, "OK")
		case "counts":
			b, err := json.Marshal(r.counts())
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s\n", b)
		default:
			fmt.Fprintf(out, "ERR unknown command %q\n", fields[0])
		}
	}
	return sc.Err()
}

// echoNames is the closed population of names the generator's self-check
// asks the echo child for.
func echoNames() *fixedNames { return newFixedNames([]dnswire.Name{"echo.test."}, 1000) }

// serveEcho is the -role=echo child, the generator's self-check target.
// One socket answers with no DNS code behind it at all: the floor of what
// a round trip between two processes costs here, and — driven closed loop
// — the most the generator itself can send and check. Its answers to
// echoNames' queries are packed beforehand and found by the query's bytes;
// anything else comes back as it came. A second socket answers through
// transport.UDPServer with a constant handler: the floor plus the server's
// read loop, goroutine dispatch, unpack, pack and write. On the command
//
//	exchange ip:port
//
// on stdin the child times transport.UDP.Exchange against that server and
// prints "RESULT <µs per exchange> <allocations per exchange>". It lives
// until stdin closes.
func serveEcho(in io.Reader, out io.Writer) error {
	raw, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer raw.Close()
	canned := map[string][]byte{} // a query minus its ID → the packed answer
	for _, wire := range echoNames().wires {
		q, err := dnswire.Unpack(wire)
		if err != nil {
			return err
		}
		if canned[string(wire[2:])], err = echoAnswer(q).Pack(); err != nil {
			return err
		}
	}
	go func() {
		buf := make([]byte, 512)
		for {
			n, from, err := raw.ReadFrom(buf)
			if err != nil {
				return
			}
			reply := buf[:n]
			if n > 2 {
				if answer, ok := canned[string(buf[2:n])]; ok {
					answer[0], answer[1] = buf[0], buf[1]
					reply = answer
				}
			}
			raw.WriteTo(reply, from)
		}
	}()
	srv := &transport.UDPServer{Handler: transport.HandlerFunc(echoAnswer)}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(out, "READY %s %s\n", raw.LocalAddr(), addr)

	names := echoNames().names
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var server string
		if _, err := fmt.Sscanf(sc.Text(), "exchange %s", &server); err != nil {
			fmt.Fprintf(out, "ERR unknown command %q\n", sc.Text())
			continue
		}
		u := &transport.UDP{Timeout: time.Second}
		var failed error
		ns, allocs := timeOp(len(names), func(i int) {
			if _, err := u.Exchange(context.Background(), transport.Addr(server), dnswire.NewQuery(uint16(i), names[i], dnswire.TypeA)); err != nil {
				failed = err
			}
		})
		if failed != nil {
			return failed
		}
		fmt.Fprintf(out, "RESULT %g %g\n", ns/1e3, allocs)
	}
	return sc.Err()
}

// echoAnswer is the trivial handler: the answer every host name gets from
// the rig, with no lookup behind it.
func echoAnswer(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	if len(q.Question) == 1 {
		name := q.Question[0].Name
		resp.Answer = []dnswire.RR{rr(name, 3600, dnswire.A{Addr: hostAddr(name)})}
	}
	return resp
}
