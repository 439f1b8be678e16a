package resolve

import (
	"context"
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
// the query that sent it: messages, messages per server address and the
// bytes the query packs to. Every server is as slow as it may be: its
// answer arrives at the attempt's deadline, which the meter spends on the
// virtual clock.
type costMeter struct {
	pipe      transport.Pipe
	clk       *simclock.Virtual
	msgs      int
	bytes     int
	perServer map[transport.Addr]int
}

func (m *costMeter) Exchange(ctx context.Context, server transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	m.msgs++
	m.bytes += len(wire)
	m.perServer[server]++
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
func resolveHostile(t *testing.T, qname string, handlers map[transport.Addr]transport.Handler) *Resolver {
	t.Helper()
	clk := simclock.NewVirtual(epoch)
	meter := &costMeter{pipe: transport.Pipe{Handlers: handlers}, clk: clk, perServer: map[transport.Addr]int{}}
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
	return r
}

// TestReferralLoopCost: the servers of two zones refer a name to each
// other — a.test.'s delegate loop.a.test. to ns.b.test., whose server
// delegates www.loop.a.test. back to ns.a.test., which refers it to
// ns.b.test. again. The query stays within one client query's bounds.
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

	resolveHostile(t, "host.www.loop.a.test.", map[transport.Addr]transport.Handler{
		"10.0.0.1": authserver.New(root),
		"10.0.1.1": authserver.New(a),
		"10.0.2.1": authserver.New(b, loop),
	})
}

// TestGluelessCycleCost: a.test.'s only server is ns.b.test. and b.test.'s
// is ns.a.test., neither with glue, so each server's address needs the
// other zone resolved first (A → B → A). The query stays within one
// client query's bounds and draws at most maxGlueFetches glue fetches.
func TestGluelessCycleCost(t *testing.T) {
	root := hostileRoot(
		[]dnswire.RR{rrNS("a.test.", 3600, "ns.b.test.")},
		[]dnswire.RR{rrNS("b.test.", 3600, "ns.a.test.")})
	r := resolveHostile(t, "www.a.test.", map[transport.Addr]transport.Handler{
		"10.0.0.1": authserver.New(root),
	})
	if n := r.Counters().GlueFetches; n > maxGlueFetches {
		t.Errorf("%d glue fetches, maxGlueFetches allows %d", n, maxGlueFetches)
	}
}
