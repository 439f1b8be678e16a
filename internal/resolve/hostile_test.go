package resolve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"resilientdns/internal/authserver"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

// designRetryBudget is R in DESIGN §10's bounds: dnscache's -retry-budget
// default.
const designRetryBudget = 16

// costMeter is a transport.Pipe that charges every upstream message to
// the query that sent it: messages, messages per server address and per
// name asked, and the bytes the query packs to. Every server is as slow as
// it may be: its answer arrives at the attempt's deadline, which the meter
// spends on the virtual clock.
type costMeter struct {
	pipe      transport.Pipe
	clk       *simclock.Virtual
	msgs      int
	bytes     int
	perServer map[transport.Addr]int
	perName   map[dnswire.Name]int
}

func (m *costMeter) Exchange(ctx context.Context, server transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	m.msgs++
	m.bytes += len(wire)
	m.perServer[server]++
	m.perName[q.Question[0].Name]++
	if deadline, ok := ctx.Deadline(); ok {
		m.clk.Advance(time.Until(deadline))
	}
	return m.pipe.Exchange(ctx, server, q)
}

// hostileRoot is a root zone served at 10.0.0.1 that delegates a.test.
// and b.test. with the given name servers, glue where the root has it.
func hostileRoot(a, b []dnswire.RR) *zone.Zone {
	root := zone.New(dnswire.Root)
	root.MustAdd(rrNS(".", 3600000, "a.root-servers.net."))
	root.MustAdd(rrA("a.root-servers.net.", 3600000, "10.0.0.1"))
	for _, rr := range append(a, b...) {
		root.MustAdd(rr)
	}
	return root
}

// resolveHostile resolves qname A as one client query's flight — a Work
// begun as KindResolve, with dnscache's retry budget — over authserver
// handlers on a Pipe, and holds what it sent upstream to DESIGN §10's
// "One client query" row: at most 2R messages, to one zone's servers too,
// at most R × (282 + 284) bytes, and nothing started after flightTimeout.
// It returns the resolver, the meter and the resolution's error.
func resolveHostile(t *testing.T, qname string, handlers map[transport.Addr]transport.Handler) (*Resolver, *costMeter, error) {
	t.Helper()
	clk := simclock.NewVirtual(epoch)
	meter := &costMeter{pipe: transport.Pipe{Handlers: handlers}, clk: clk,
		perServer: map[transport.Addr]int{}, perName: map[dnswire.Name]int{}}
	r := newTestResolver(t, Config{Clock: clk, Transport: meter, Upstream: UpstreamConfig{RetryBudget: designRetryBudget}})
	flight := new(Work)
	r.Begin(flight, context.Background(), KindResolve)
	res, err := r.ResolveChain(flight, nil, dnswire.MustName(qname), dnswire.TypeA)
	took := clk.Now().Sub(epoch)
	t.Logf("%s: %d messages, %d B, per server %v, %v on the virtual clock, glue fetches %d; result %v, err %v",
		qname, meter.msgs, meter.bytes, meter.perServer, took, r.Counters().GlueFetches, res, err)

	if limit := 2 * designRetryBudget; meter.msgs > limit {
		t.Errorf("%d upstream messages, DESIGN §10 allows %d", meter.msgs, limit)
	}
	for server, n := range meter.perServer {
		if n > 2*designRetryBudget {
			t.Errorf("%d messages to %s, DESIGN §10 allows %d", n, server, 2*designRetryBudget)
		}
	}
	if limit := designRetryBudget * (282 + 284); meter.bytes > limit {
		t.Errorf("%d bytes sent upstream, DESIGN §10 allows %d", meter.bytes, limit)
	}
	if took > flightTimeout {
		t.Errorf("the flight ran %v on the virtual clock, past flightTimeout %v", took, flightTimeout)
	}
	return r, meter, err
}

// TestReferralLoopCost: the servers of two zones refer a name to each
// other — a.test.'s delegate loop.a.test. to ns.b.test., whose server
// delegates www.loop.a.test. back to ns.a.test., which refers it to
// ns.b.test. again. The query fails (SERVFAIL) at the first referral back
// up, to a zone the walk already asked: the sixth message, and each one
// answered at its 3 s deadline. Going round again cost the whole retry
// budget (16 messages and the flight's 30 s).
func TestReferralLoopCost(t *testing.T) {
	root := hostileRoot(
		[]dnswire.RR{rrNS("a.test.", 3600, "ns.a.test."), rrA("ns.a.test.", 3600, "10.0.1.1")},
		[]dnswire.RR{rrNS("b.test.", 3600, "ns.b.test."), rrA("ns.b.test.", 3600, "10.0.2.1")})
	a := zone.New(dnswire.MustName("a.test."))
	a.MustAdd(rrNS("a.test.", 3600, "ns.a.test."))
	a.MustAdd(rrA("ns.a.test.", 3600, "10.0.1.1"))
	a.MustAdd(rrNS("loop.a.test.", 3600, "ns.b.test."))
	b := zone.New(dnswire.MustName("b.test."))
	b.MustAdd(rrNS("b.test.", 3600, "ns.b.test."))
	b.MustAdd(rrA("ns.b.test.", 3600, "10.0.2.1"))
	loop := zone.New(dnswire.MustName("loop.a.test."))
	loop.MustAdd(rrNS("loop.a.test.", 3600, "ns.b.test."))
	loop.MustAdd(rrNS("www.loop.a.test.", 3600, "ns.a.test."))

	_, meter, err := resolveHostile(t, "host.www.loop.a.test.", map[transport.Addr]transport.Handler{
		"10.0.0.1": authserver.New(root),
		"10.0.1.1": authserver.New(a),
		"10.0.2.1": authserver.New(b, loop),
	})
	if !errors.Is(err, ErrResolutionFailed) || !strings.Contains(err.Error(), "referral loop") {
		t.Errorf("err = %v, want the referral loop (SERVFAIL)", err)
	}
	if meter.msgs > 6 {
		t.Errorf("%d upstream messages, want at most 6: the loop closes at the sixth", meter.msgs)
	}
	if took := meter.clk.Now().Sub(epoch); took > 6*defaultMaxTimeout {
		t.Errorf("the walk ran %v on the virtual clock, want at most six attempts' %v", took, 6*defaultMaxTimeout)
	}
}

// TestLameZoneNotDescendedAgain: test.'s server refers every name to
// elsewhere., a zone neither above nor below it, which the walk never
// asked. test. is lame; the walk climbs to the root, which refers it down
// to test. again, and that second referral fails the query at once: three
// messages, where going round cost the whole retry budget.
func TestLameZoneNotDescendedAgain(t *testing.T) {
	root := hostileRoot([]dnswire.RR{rrNS("test.", 3600, "ns.test."), rrA("ns.test.", 3600, "10.0.1.1")}, nil)
	sideways := transport.HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		resp := q.Reply()
		resp.Authority = []dnswire.RR{rrNS("elsewhere.", 3600, "ns.elsewhere.")}
		return resp
	})
	_, meter, err := resolveHostile(t, "www.test.", map[transport.Addr]transport.Handler{
		"10.0.0.1": authserver.New(root),
		"10.0.1.1": sideways,
	})
	if !errors.Is(err, ErrResolutionFailed) || !strings.Contains(err.Error(), "referral loop") {
		t.Errorf("err = %v, want the referral loop (SERVFAIL)", err)
	}
	if meter.msgs > 3 {
		t.Errorf("%d upstream messages, want at most 3: root, test., root", meter.msgs)
	}
}

// TestGluelessFanoutCost: the NXNS shape. attacker.test.'s server
// delegates www.attacker.test. to twenty names in victim.test., none with
// glue, and victim.test.'s server answers each with NXDOMAIN, or answers
// nothing. The query stays within one client query's row of DESIGN §10:
// at most 2R messages in all and to the victim, R × 566 bytes,
// flightTimeout of virtual time, and maxGlueFetches glue fetches, however
// many names the referral carries. An answered glue fetch, NXDOMAIN
// included, ends the fanout; a silent victim is asked until the flight's
// time is up.
func TestGluelessFanoutCost(t *testing.T) {
	root := hostileRoot(
		[]dnswire.RR{rrNS("attacker.test.", 3600, "ns.attacker.test."), rrA("ns.attacker.test.", 3600, "10.0.1.1")},
		[]dnswire.RR{rrNS("victim.test.", 3600, "ns.victim.test."), rrA("ns.victim.test.", 3600, "10.0.2.1")})
	attacker := zone.New(dnswire.MustName("attacker.test."))
	attacker.MustAdd(rrNS("attacker.test.", 3600, "ns.attacker.test."))
	attacker.MustAdd(rrA("ns.attacker.test.", 3600, "10.0.1.1"))
	for i := 0; i < maxGlueFetches+4; i++ {
		attacker.MustAdd(rrNS("www.attacker.test.", 3600, fmt.Sprintf("ns%d.victim.test.", i)))
	}
	victim := zone.New(dnswire.MustName("victim.test."))
	victim.MustAdd(dnswire.RR{Name: dnswire.MustName("victim.test."), Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.SOA{MName: dnswire.MustName("ns.victim.test."), RName: dnswire.MustName("admin.victim.test."), Minimum: 300}})
	victim.MustAdd(rrNS("victim.test.", 3600, "ns.victim.test."))
	victim.MustAdd(rrA("ns.victim.test.", 3600, "10.0.2.1"))

	silent := transport.HandlerFunc(func(*dnswire.Message) *dnswire.Message { return nil })
	for _, v := range []struct {
		name    string
		handler transport.Handler
	}{{"NXDOMAIN", authserver.New(victim)}, {"silent", silent}} {
		r, meter, err := resolveHostile(t, "host.www.attacker.test.", map[transport.Addr]transport.Handler{
			"10.0.0.1": authserver.New(root),
			"10.0.1.1": authserver.New(attacker),
			"10.0.2.1": v.handler,
		})
		if !errors.Is(err, ErrResolutionFailed) {
			t.Errorf("%s victim: err = %v, want SERVFAIL: no delegated server has an address", v.name, err)
		}
		if n := r.Counters().GlueFetches; n > maxGlueFetches {
			t.Errorf("%s victim: %d glue fetches, maxGlueFetches allows %d", v.name, n, maxGlueFetches)
		}
		if n := meter.perServer["10.0.2.1"]; n > designRetryBudget {
			t.Errorf("%s victim: %d messages to its server, one client query may send R = %d", v.name, n, designRetryBudget)
		}
	}
}

// TestCNAMELoopCost: www.a.test. is a CNAME for www.b.test., served by
// another zone's server, which is a CNAME back. The walk stops at its hop
// bound and fails (SERVFAIL), each name is fetched once, the rest of the
// hops come from the cache, and the query stays within one client
// query's bounds.
func TestCNAMELoopCost(t *testing.T) {
	root := hostileRoot(
		[]dnswire.RR{rrNS("a.test.", 3600, "ns.a.test."), rrA("ns.a.test.", 3600, "10.0.1.1")},
		[]dnswire.RR{rrNS("b.test.", 3600, "ns.b.test."), rrA("ns.b.test.", 3600, "10.0.2.1")})
	a := zone.New(dnswire.MustName("a.test."))
	a.MustAdd(rrNS("a.test.", 3600, "ns.a.test."))
	a.MustAdd(rrA("ns.a.test.", 3600, "10.0.1.1"))
	a.MustAdd(rrCNAME("www.a.test.", "www.b.test."))
	b := zone.New(dnswire.MustName("b.test."))
	b.MustAdd(rrNS("b.test.", 3600, "ns.b.test."))
	b.MustAdd(rrA("ns.b.test.", 3600, "10.0.2.1"))
	b.MustAdd(rrCNAME("www.b.test.", "www.a.test."))

	_, meter, err := resolveHostile(t, "www.a.test.", map[transport.Addr]transport.Handler{
		"10.0.0.1": authserver.New(root),
		"10.0.1.1": authserver.New(a),
		"10.0.2.1": authserver.New(b),
	})
	if !errors.Is(err, ErrResolutionFailed) || !strings.Contains(err.Error(), "CNAME chain too long") {
		t.Errorf("err = %v, want the CNAME chain's hop bound (SERVFAIL)", err)
	}
	if hops := meter.perName["www.a.test."] + meter.perName["www.b.test."]; hops > maxCNAME {
		t.Errorf("the loop's names were fetched %d times, more than maxCNAME %d hops", hops, maxCNAME)
	}
}

// TestGluelessCycleCost: a.test.'s only server is ns.b.test. and b.test.'s
// is ns.a.test., neither with glue, so each server's address needs the
// other zone resolved first (A → B → A). The query stays within one
// client query's bounds and draws at most maxGlueFetches glue fetches.
func TestGluelessCycleCost(t *testing.T) {
	root := hostileRoot(
		[]dnswire.RR{rrNS("a.test.", 3600, "ns.b.test.")},
		[]dnswire.RR{rrNS("b.test.", 3600, "ns.a.test.")})
	r, _, _ := resolveHostile(t, "www.a.test.", map[transport.Addr]transport.Handler{
		"10.0.0.1": authserver.New(root),
	})
	if n := r.Counters().GlueFetches; n > maxGlueFetches {
		t.Errorf("%d glue fetches, maxGlueFetches allows %d", n, maxGlueFetches)
	}
}
