package resolve

import (
	"context"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"resilientdns/internal/authserver"
	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

// pooledPipe is a Pipe whose responses travel as UDP's do: packed, then
// decoded into pooled storage (dnswire.UnpackReply). It keeps every
// response's sections, to scribble over once the resolver has released
// them, as the next reply decoded into the same storage would.
type pooledPipe struct {
	pipe     transport.Pipe
	sections [][]dnswire.RR
}

func (p *pooledPipe) Exchange(ctx context.Context, server transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
	resp, err := p.pipe.Exchange(ctx, server, q)
	if err != nil {
		return nil, err
	}
	wire, err := resp.Pack()
	if err != nil {
		return nil, err
	}
	m, err := dnswire.UnpackReply(wire, q)
	if err != nil {
		return nil, err
	}
	p.sections = append(p.sections, m.Answer, m.Authority, m.Additional)
	return m, nil
}

// scribble overwrites every record of every response p returned.
func (p *pooledPipe) scribble() {
	junk := dnswire.RR{Name: dnswire.MustName("scribbled.invalid."), Class: dnswire.ClassIN, TTL: 1,
		Data: dnswire.A{Addr: netip.MustParseAddr("203.0.113.66")}}
	for _, s := range p.sections {
		for i := range s {
			s[i] = junk
		}
	}
}

// releaseZones serves test. under the root, with glue: an address, a
// CNAME to it, and an SOA for the names it does not have.
func releaseZones() map[transport.Addr]transport.Handler {
	root := zone.New(dnswire.Root)
	root.MustAdd(rrNS(".", 3600000, "a.root-servers.net."))
	root.MustAdd(rrA("a.root-servers.net.", 3600000, "10.0.0.1"))
	root.MustAdd(rrNS("test.", 3600, "ns1.test."))
	root.MustAdd(rrNS("test.", 3600, "ns2.test."))
	root.MustAdd(rrA("ns1.test.", 3600, "10.0.1.1"))
	root.MustAdd(rrA("ns2.test.", 3600, "10.0.1.2"))
	tz := zone.New(dnswire.MustName("test."))
	tz.MustAdd(dnswire.RR{Name: dnswire.MustName("test."), Class: dnswire.ClassIN, TTL: 3600,
		Data: dnswire.SOA{MName: dnswire.MustName("ns1.test."), RName: dnswire.MustName("admin.test."), Minimum: 300}})
	tz.MustAdd(rrNS("test.", 3600, "ns1.test."))
	tz.MustAdd(rrNS("test.", 3600, "ns2.test."))
	tz.MustAdd(rrA("ns1.test.", 3600, "10.0.1.1"))
	tz.MustAdd(rrA("ns2.test.", 3600, "10.0.1.2"))
	tz.MustAdd(rrA("www.test.", 300, "10.9.9.9"))
	tz.MustAdd(rrCNAME("alias.test.", "www.test."))
	ts := authserver.New(tz)
	return map[transport.Addr]transport.Handler{"10.0.0.1": authserver.New(root), "10.0.1.1": ts, "10.0.1.2": ts}
}

// cacheDump is every entry of c in presentation form, sorted.
func cacheDump(c *cache.Cache) []string {
	var out []string
	c.Range(func(e *cache.Entry) bool {
		for _, rr := range e.RRs {
			out = append(out, rr.String())
		}
		return true
	})
	sort.Strings(out)
	return out
}

// TestReleasedResponsesKeepNothing: a resolution over pooled responses
// (UDP's path) releases each step's response once it is done with it, and
// keeps no slice of one. Scribbling over every response's records after
// the resolutions leaves their Results and the cache exactly as a
// resolution over plain Pipe responses leaves them.
func TestReleasedResponsesKeepNothing(t *testing.T) {
	names := []string{"www.test.", "alias.test.", "missing.test."}
	resolveAll := func(tr transport.Transport) (*Resolver, []*Result) {
		clk := simclock.NewVirtual(epoch)
		r := newTestResolver(t, Config{Clock: clk, Transport: tr,
			Cache: cache.New(cache.Config{Clock: clk, NegativeTTL: time.Minute})})
		var results []*Result
		for _, n := range names {
			res, err := r.ResolveChain(context.Background(), nil, dnswire.MustName(n), dnswire.TypeA)
			if err != nil {
				t.Fatalf("%s: %v", n, err)
			}
			results = append(results, res)
		}
		return r, results
	}
	plainR, want := resolveAll(&transport.Pipe{Handlers: releaseZones()})
	pooled := &pooledPipe{pipe: transport.Pipe{Handlers: releaseZones()}}
	r, got := resolveAll(pooled)
	if len(pooled.sections) == 0 {
		t.Fatal("no pooled response was exchanged")
	}
	pooled.scribble()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: Result after scribbling over the released responses:\n got %+v\nwant %+v", names[i], *got[i], *want[i])
		}
	}
	if g, w := cacheDump(r.cache), cacheDump(plainR.cache); !reflect.DeepEqual(g, w) {
		t.Errorf("cache after scribbling over the released responses:\n got %q\nwant %q", g, w)
	}
}

// TestPipeResponseNeverRecycled: Release leaves a message that
// UnpackReply did not make alone — a Pipe handler's response may be one
// it keeps and serves again.
func TestPipeResponseNeverRecycled(t *testing.T) {
	pipe := &transport.Pipe{Handlers: releaseZones()}
	q := dnswire.NewQuery(1, dnswire.MustName("www.test."), dnswire.TypeA)
	resp, err := pipe.Exchange(context.Background(), "10.0.1.1", q)
	if err != nil {
		t.Fatal(err)
	}
	before := resp.String()
	dnswire.Release(resp)
	if after := resp.String(); after != before || len(resp.Answer) != 1 {
		t.Errorf("Release changed a Pipe response:\n%s\nwas\n%s", after, before)
	}
}
