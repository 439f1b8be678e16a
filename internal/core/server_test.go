package core

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/authserver"
	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func rrA(name string, ttl uint32, ip string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.A{Addr: netip.MustParseAddr(ip)},
	}
}

func rrNS(name string, ttl uint32, host string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.NS{Host: dnswire.MustName(host)},
	}
}

func rrCNAME(name, target string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   300,
		Data:  dnswire.CNAME{Target: dnswire.MustName(target)},
	}
}

// fixture is an in-memory DNS hierarchy:
//
//	.  (10.0.0.1)
//	├── edu.  (10.0.1.1, 10.0.1.2)   IRR TTL 86400
//	│   ├── ucla.edu.  (10.0.2.1, 10.0.2.2)  IRR TTL 3600
//	│   └── oob.edu.   served by ns1.com. (out-of-bailiwick, no glue)
//	└── com.  (10.0.3.1)             IRR TTL 86400
type fixture struct {
	clock   *simclock.Virtual
	net     *simnet.Network
	cs      *CachingServer
	uclaSrv *authserver.Server
}

// reviveUclaHost re-registers a previously killed ucla.edu server with
// its real handler.
func (f *fixture) reviveUclaHost(addr string) {
	f.net.Register(&simnet.Host{
		Addr:    transport.Addr(addr),
		Zone:    dnswire.MustName("ucla.edu."),
		Handler: f.uclaSrv,
	})
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	clk := simclock.NewVirtual(epoch)
	net := simnet.New(clk)
	net.RTT = 0
	net.Timeout = 0

	root := zone.New(dnswire.Root)
	root.MustAdd(rrNS(".", 3600000, "a.root-servers.net."))
	root.MustAdd(rrA("a.root-servers.net.", 3600000, "10.0.0.1"))
	root.MustAdd(rrNS("edu.", 86400, "ns1.edu."))
	root.MustAdd(rrNS("edu.", 86400, "ns2.edu."))
	root.MustAdd(rrA("ns1.edu.", 86400, "10.0.1.1"))
	root.MustAdd(rrA("ns2.edu.", 86400, "10.0.1.2"))
	root.MustAdd(rrNS("com.", 86400, "ns1.com."))
	root.MustAdd(rrA("ns1.com.", 86400, "10.0.3.1"))

	edu := zone.New(dnswire.MustName("edu."))
	edu.MustAdd(rrNS("edu.", 86400, "ns1.edu."))
	edu.MustAdd(rrNS("edu.", 86400, "ns2.edu."))
	edu.MustAdd(rrA("ns1.edu.", 86400, "10.0.1.1"))
	edu.MustAdd(rrA("ns2.edu.", 86400, "10.0.1.2"))
	edu.MustAdd(rrNS("ucla.edu.", 3600, "ns1.ucla.edu."))
	edu.MustAdd(rrNS("ucla.edu.", 3600, "ns2.ucla.edu."))
	edu.MustAdd(rrA("ns1.ucla.edu.", 3600, "10.0.2.1"))
	edu.MustAdd(rrA("ns2.ucla.edu.", 3600, "10.0.2.2"))
	edu.MustAdd(rrNS("oob.edu.", 3600, "ns1.com."))

	ucla := zone.New(dnswire.MustName("ucla.edu."))
	ucla.MustAdd(dnswire.RR{
		Name:  dnswire.MustName("ucla.edu."),
		Class: dnswire.ClassIN,
		TTL:   3600,
		Data: dnswire.SOA{
			MName:   dnswire.MustName("ns1.ucla.edu."),
			RName:   dnswire.MustName("hostmaster.ucla.edu."),
			Serial:  1,
			Minimum: 60,
		},
	})
	ucla.MustAdd(rrNS("ucla.edu.", 3600, "ns1.ucla.edu."))
	ucla.MustAdd(rrNS("ucla.edu.", 3600, "ns2.ucla.edu."))
	ucla.MustAdd(rrA("ns1.ucla.edu.", 3600, "10.0.2.1"))
	ucla.MustAdd(rrA("ns2.ucla.edu.", 3600, "10.0.2.2"))
	ucla.MustAdd(rrA("www.ucla.edu.", 300, "10.9.9.9"))
	ucla.MustAdd(rrCNAME("alias.ucla.edu.", "www.com."))

	com := zone.New(dnswire.MustName("com."))
	com.MustAdd(rrNS("com.", 86400, "ns1.com."))
	com.MustAdd(rrA("ns1.com.", 86400, "10.0.3.1"))
	com.MustAdd(rrA("www.com.", 600, "10.8.8.8"))

	oob := zone.New(dnswire.MustName("oob.edu."))
	oob.MustAdd(rrNS("oob.edu.", 3600, "ns1.com."))
	oob.MustAdd(rrA("www.oob.edu.", 300, "10.7.7.7"))

	register := func(addr string, zoneName string, srv *authserver.Server) {
		net.Register(&simnet.Host{
			Addr:    transport.Addr(addr),
			Zone:    dnswire.MustName(zoneName),
			Handler: srv,
		})
	}
	register("10.0.0.1", ".", authserver.New(root))
	eduSrv := authserver.New(edu)
	register("10.0.1.1", "edu.", eduSrv)
	register("10.0.1.2", "edu.", eduSrv)
	uclaSrv := authserver.New(ucla)
	register("10.0.2.1", "ucla.edu.", uclaSrv)
	register("10.0.2.2", "ucla.edu.", uclaSrv)
	// ns1.com serves both com. and the out-of-bailiwick oob.edu.
	register("10.0.3.1", "com.", authserver.New(com, oob))

	cfg.Transport = net
	cfg.Clock = clk
	cfg.RootHints = []ServerRef{{Host: dnswire.MustName("a.root-servers.net."), Addr: "10.0.0.1"}}
	cs, err := NewCachingServer(cfg)
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}
	return &fixture{clock: clk, net: net, cs: cs, uclaSrv: uclaSrv}
}

func (f *fixture) resolveA(t testing.TB, name string) *Result {
	t.Helper()
	res, err := f.cs.Resolve(context.Background(), dnswire.MustName(name), dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve(%s): %v", name, err)
	}
	return res
}

func TestResolveWalksHierarchy(t *testing.T) {
	f := newFixture(t, Config{})
	res := f.resolveA(t, "www.ucla.edu.")
	if res.RCode != dnswire.RCodeNoError || len(res.Answer) != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := res.Answer[0].Data.String(); got != "10.9.9.9" {
		t.Errorf("answer = %s, want 10.9.9.9", got)
	}
	if res.FromCache {
		t.Error("first resolution claimed FromCache")
	}
	// Root → edu referral → ucla referral → answer: 3 outgoing queries.
	if st := f.cs.Stats(); st.QueriesOut != 3 {
		t.Errorf("QueriesOut = %d, want 3", st.QueriesOut)
	}
}

func TestResolveUsesCache(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	before := f.cs.Stats().QueriesOut
	res := f.resolveA(t, "www.ucla.edu.")
	if !res.FromCache {
		t.Error("second resolution not from cache")
	}
	if after := f.cs.Stats().QueriesOut; after != before {
		t.Errorf("cache hit still sent %d queries", after-before)
	}
}

func TestIRRsCachedAfterWalk(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	// A later query for a sibling name under ucla.edu must go directly to
	// the ucla servers (1 query), not re-walk the hierarchy.
	before := f.cs.Stats().QueriesOut
	f.resolveA(t, "ftp.ucla.edu.") // NXDOMAIN but that's fine
	if sent := f.cs.Stats().QueriesOut - before; sent != 1 {
		t.Errorf("sibling query sent %d queries, want 1 (IRRs not cached?)", sent)
	}
}

func TestChildIRRReplacesParentGlue(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	e := f.cs.Cache().Peek(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if e == nil {
		t.Fatal("ucla.edu. NS not cached")
	}
	if e.Cred() != cache.CredAuthority {
		t.Errorf("NS credibility = %v, want CredAuthority (child copy)", e.Cred())
	}
	if !e.Infra() {
		t.Error("NS entry not marked infrastructure")
	}
}

func TestVanillaIRRExpiresAndRewalks(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	f.clock.Advance(2 * time.Hour) // ucla IRR TTL is 1h
	before := f.cs.Stats().QueriesOut
	f.resolveA(t, "www.ucla.edu.")
	// edu IRR (TTL 1d) still cached: edu referral + ucla answer = 2.
	if sent := f.cs.Stats().QueriesOut - before; sent != 2 {
		t.Errorf("re-walk sent %d queries, want 2", sent)
	}
}

func TestRefreshKeepsIRRAlive(t *testing.T) {
	f := newFixture(t, Config{RefreshTTL: true})
	f.resolveA(t, "www.ucla.edu.")
	// Query every 30 minutes; each answer from ucla servers refreshes the
	// 1-hour IRR TTL, so after 3 hours the IRRs must still be cached.
	for i := 0; i < 6; i++ {
		f.clock.Advance(30 * time.Minute)
		f.resolveA(t, "www.ucla.edu.")
	}
	e := f.cs.Cache().Peek(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if e == nil {
		t.Fatal("IRR expired despite refresh")
	}
	if e.Expires().Before(f.clock.Now()) {
		t.Error("IRR stale despite refresh")
	}
}

func TestNoRefreshWithoutFlag(t *testing.T) {
	irr := cache.Key{Name: dnswire.MustName("ucla.edu."), Type: dnswire.TypeNS}
	var f *fixture
	var putAt time.Time // when the IRR was last put; an extension is not a put
	f = newFixture(t, Config{OnCacheChange: func(op cache.ChangeOp, key cache.Key, _ *cache.Entry) {
		if op == cache.ChangePut && key == irr {
			putAt = f.clock.Now()
		}
	}})
	f.resolveA(t, "www.ucla.edu.")
	for i := 0; i < 6; i++ {
		f.clock.Advance(30 * time.Minute)
		f.resolveA(t, "www.ucla.edu.")
	}
	f.cs.Cache().SweepExpired()
	e := f.cs.Cache().Peek(irr.Name, irr.Type)
	// The entry was re-learned each time it expired, but the expiry must
	// never exceed its last put + 1h, proving no refresh happened.
	if e != nil && e.Expires().Sub(putAt) > time.Hour {
		t.Errorf("vanilla entry lifetime %v exceeds TTL", e.Expires().Sub(putAt))
	}
}

func TestCNAMEChaseAcrossZones(t *testing.T) {
	f := newFixture(t, Config{})
	res := f.resolveA(t, "alias.ucla.edu.")
	if len(res.Answer) != 2 {
		t.Fatalf("answers = %v, want CNAME + A", res.Answer)
	}
	if res.Answer[0].Type() != dnswire.TypeCNAME {
		t.Errorf("first answer = %v, want CNAME", res.Answer[0])
	}
	last := res.Answer[len(res.Answer)-1]
	if last.Type() != dnswire.TypeA || last.Data.String() != "10.8.8.8" {
		t.Errorf("final answer = %v, want www.com. A 10.8.8.8", last)
	}
}

func TestNXDomain(t *testing.T) {
	f := newFixture(t, Config{})
	res, err := f.cs.Resolve(context.Background(), dnswire.MustName("missing.ucla.edu."), dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if res.RCode != dnswire.RCodeNXDomain {
		t.Errorf("RCode = %v, want NXDOMAIN", res.RCode)
	}
}

func TestOutOfBailiwickGlueResolution(t *testing.T) {
	f := newFixture(t, Config{})
	res := f.resolveA(t, "www.oob.edu.")
	if len(res.Answer) != 1 || res.Answer[0].Data.String() != "10.7.7.7" {
		t.Fatalf("answer = %v", res.Answer)
	}
}

func TestAttackFailsUncachedResolution(t *testing.T) {
	f := newFixture(t, Config{})
	f.net.SetAttack(attack.RootAndTLDs(epoch, 6*time.Hour, []dnswire.Name{
		dnswire.Root, dnswire.MustName("edu."), dnswire.MustName("com."),
	}))
	_, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	if err == nil {
		t.Fatal("resolution succeeded with root and TLDs down and a cold cache")
	}
	st := f.cs.Stats()
	if st.Failed != 1 {
		t.Errorf("Failed = %d, want 1", st.Failed)
	}
	if st.QueriesOutFailed == 0 {
		t.Error("no failed outgoing queries recorded")
	}
}

func TestCachedIRRSurvivesAttack(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.") // warm the cache
	f.net.SetAttack(attack.RootAndTLDs(f.clock.Now(), 6*time.Hour, []dnswire.Name{
		dnswire.Root, dnswire.MustName("edu."), dnswire.MustName("com."),
	}))
	f.clock.Advance(10 * time.Minute) // www A (300s) expired; ucla IRR (1h) alive
	res := f.resolveA(t, "www.ucla.edu.")
	if res.FromCache {
		t.Error("expected re-fetch from ucla servers")
	}
	if len(res.Answer) != 1 {
		t.Errorf("answer = %v", res.Answer)
	}
}

func TestAttackExpiredIRRFails(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	f.net.SetAttack(attack.Schedule{attack.NewWindow(
		f.clock.Now(), 24*time.Hour, dnswire.Root, dnswire.MustName("edu."))})
	f.clock.Advance(2 * time.Hour) // ucla IRR (1h) expired during the attack
	_, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	if err == nil {
		t.Fatal("resolution succeeded though IRRs expired and edu is down")
	}
}

func TestRenewalKeepsIRRAcrossGap(t *testing.T) {
	f := newFixture(t, Config{
		RefreshTTL: true,
		Renewal:    LRU{C: 3},
	})
	f.resolveA(t, "www.ucla.edu.")
	ctx := context.Background()
	// No queries for 3 hours; the 1-hour IRR would expire, but 3 credits
	// of renewal keep it alive through 3 extra TTL periods.
	for f.clock.Now().Before(epoch.Add(3 * time.Hour)) {
		due, ok := f.cs.NextRenewalDue()
		if !ok || due.After(epoch.Add(3*time.Hour)) {
			break
		}
		f.clock.AdvanceTo(due)
		f.cs.ProcessDueRenewals(ctx, f.clock.Now())
	}
	f.clock.AdvanceTo(epoch.Add(3 * time.Hour))
	e := f.cs.Cache().Peek(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if e == nil || e.Expires().Before(f.clock.Now()) {
		t.Fatal("renewal did not keep the IRR alive")
	}
	st := f.cs.Stats()
	if st.Renewals == 0 || st.RenewalQueries == 0 {
		t.Errorf("stats = %+v, want renewals recorded", st)
	}
}

func TestRenewalStopsWhenCreditExhausted(t *testing.T) {
	f := newFixture(t, Config{
		RefreshTTL: true,
		Renewal:    LRU{C: 2},
	})
	f.resolveA(t, "www.ucla.edu.")
	ctx := context.Background()
	deadline := epoch.Add(12 * time.Hour)
	for {
		due, ok := f.cs.NextRenewalDue()
		if !ok || due.After(deadline) {
			break
		}
		f.clock.AdvanceTo(due)
		f.cs.ProcessDueRenewals(ctx, f.clock.Now())
	}
	f.clock.AdvanceTo(deadline)
	f.cs.Cache().SweepExpired()
	if e := f.cs.Cache().Peek(dnswire.MustName("ucla.edu."), dnswire.TypeNS); e != nil {
		t.Errorf("IRR still cached after credit exhausted: %+v", e)
	}
	if st := f.cs.Stats(); st.Renewals != 2 {
		t.Errorf("Renewals = %d, want exactly 2 (the credit)", st.Renewals)
	}
}

func TestRenewalDoesNotSelfSustain(t *testing.T) {
	// LFU accumulates credit per query, but renewal refetches must not
	// count as queries, or credit would grow forever.
	f := newFixture(t, Config{
		RefreshTTL: true,
		Renewal:    LFU{C: 1, Max: 100},
	})
	f.resolveA(t, "www.ucla.edu.")
	ctx := context.Background()
	deadline := epoch.Add(48 * time.Hour)
	renewCount := 0
	for {
		due, ok := f.cs.NextRenewalDue()
		if !ok || due.After(deadline) {
			break
		}
		f.clock.AdvanceTo(due)
		renewCount += f.cs.ProcessDueRenewals(ctx, f.clock.Now())
		if renewCount > 10 {
			t.Fatalf("renewal self-sustains: %d refetches with only 2 demand queries", renewCount)
		}
	}
}

// TestRenewalLateByRefetchClock: two zones fall due at one instant, and
// each refetch takes two seconds of virtual time, so the first one runs
// the clock past the second zone's expiry. The second refetch is late —
// judged by the clock as it starts, not by the sweep's now — yet both
// renewals still succeed.
func TestRenewalLateByRefetchClock(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	slow := transport.Exchanger(func(_ context.Context, _ transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		clk.Advance(2 * time.Second)
		zone := string(q.Question[0].Name)
		resp := q.Reply()
		resp.Flags.Authoritative = true
		resp.Answer = []dnswire.RR{rrNS(zone, 100, "ns."+zone)}
		return resp, nil
	})
	cs, err := NewCachingServer(Config{
		Transport: slow,
		Clock:     clk,
		RootHints: []ServerRef{{Host: dnswire.MustName("a.root-servers.net."), Addr: "10.0.0.1"}},
		Renewal:   LRU{C: 3},
	})
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}
	defer cs.Close()
	credits := map[dnswire.Name]float64{}
	for i, zone := range []string{"a.test.", "b.test."} {
		cs.cache.Put([]dnswire.RR{rrNS(zone, 100, "ns."+zone)}, cache.CredAnswer, true)
		cs.cache.Put([]dnswire.RR{rrA("ns."+zone, 3600, fmt.Sprintf("10.0.9.%d", i+1))}, cache.CredAnswer, true)
		credits[dnswire.MustName(zone)] = 1
	}
	cs.RestoreRenewalCredits(credits)
	cs.RearmRenewals()

	due, ok := cs.NextRenewalDue()
	if want := epoch.Add(100*time.Second - renewLead); !ok || !due.Equal(want) {
		t.Fatalf("first renewal due %v, %v; want %v", due, ok, want)
	}
	clk.AdvanceTo(due)
	if n := cs.ProcessDueRenewals(context.Background(), due); n != 2 {
		t.Fatalf("ProcessDueRenewals issued %d refetches, want both zones", n)
	}
	if st := cs.Stats(); st.RenewalLate != 1 || st.Renewals != 2 {
		t.Errorf("RenewalLate = %d, Renewals = %d; want 1 late of 2 renewals", st.RenewalLate, st.Renewals)
	}
}

func TestNegativeCaching(t *testing.T) {
	f := newFixture(t, Config{NegativeTTL: time.Hour})
	f.resolveA(t, "missing.ucla.edu.")
	before := f.cs.Stats().QueriesOut
	res, err := f.cs.Resolve(context.Background(), dnswire.MustName("missing.ucla.edu."), dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if res.RCode != dnswire.RCodeNXDomain || !res.FromCache {
		t.Errorf("result = %+v, want cached NXDOMAIN", res)
	}
	if sent := f.cs.Stats().QueriesOut - before; sent != 0 {
		t.Errorf("negative cache miss: %d queries sent", sent)
	}
}

func TestServerFailoverToSecondNS(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	// Take down only one ucla server by a targeted attack on a synthetic
	// zone name is not possible; instead remove the host from the network
	// by re-registering a dead handler.
	f.net.Register(&simnet.Host{
		Addr:    "10.0.2.1",
		Zone:    dnswire.MustName("ucla.edu."),
		Handler: transport.HandlerFunc(func(*dnswire.Message) *dnswire.Message { return nil }),
	})
	f.clock.Advance(10 * time.Minute)
	res := f.resolveA(t, "www.ucla.edu.")
	if len(res.Answer) != 1 {
		t.Fatalf("failover failed: %+v", res)
	}
}

func TestMaxTTLClampAppliesToIRRs(t *testing.T) {
	f := newFixture(t, Config{MaxTTL: 30 * time.Minute})
	f.resolveA(t, "www.ucla.edu.")
	e := f.cs.Cache().Peek(dnswire.MustName("edu."), dnswire.TypeNS)
	if e == nil {
		t.Fatal("edu. NS not cached")
	}
	if e.OrigTTL() > 30*time.Minute {
		t.Errorf("IRR TTL %v exceeds clamp", e.OrigTTL())
	}
}

func TestGapObserved(t *testing.T) {
	var gaps []time.Duration
	f := newFixture(t, Config{
		OnGap: func(key cache.Key, gap, _ time.Duration) {
			if key.Type == dnswire.TypeNS {
				gaps = append(gaps, gap)
			}
		},
	})
	f.resolveA(t, "www.ucla.edu.")
	f.clock.Advance(3 * time.Hour) // ucla IRR expired 2h ago
	f.resolveA(t, "www.ucla.edu.")
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v, want exactly 1 NS gap", gaps)
	}
	if gaps[0] != 2*time.Hour {
		t.Errorf("gap = %v, want 2h", gaps[0])
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCachingServer(Config{}); err == nil {
		t.Error("NewCachingServer accepted empty config")
	}
	if _, err := NewCachingServer(Config{Transport: &transport.Pipe{}}); err == nil {
		t.Error("NewCachingServer accepted config without root hints")
	}
}

func TestCrossZoneCNAMELoopFails(t *testing.T) {
	f := newFixture(t, Config{})
	// One CNAME hop is within the bound.
	if _, err := f.cs.Resolve(context.Background(), dnswire.MustName("alias.ucla.edu."), dnswire.TypeA); err != nil {
		t.Fatalf("single hop failed: %v", err)
	}

	// Chains whose every link crosses to the other server — ucla.edu. and
	// com. — so the resolver chases each hop itself: aN ends after 8 CNAMEs,
	// bN after 9, one past the bound, and l0 ↔ l1 loops.
	uclaZ, comZ := zone.New(dnswire.MustName("ucla.edu.")), zone.New(dnswire.MustName("com."))
	link := func(prefix string, i int) string {
		if i%2 == 0 {
			return fmt.Sprintf("%s%d.ucla.edu.", prefix, i)
		}
		return fmt.Sprintf("%s%d.com.", prefix, i)
	}
	add := func(rr dnswire.RR) {
		if rr.Name.IsSubdomainOf(dnswire.MustName("com.")) {
			comZ.MustAdd(rr)
		} else {
			uclaZ.MustAdd(rr)
		}
	}
	for _, c := range []struct {
		prefix string
		hops   int
	}{{"a", 8}, {"b", 9}} {
		for i := 0; i < c.hops; i++ {
			add(rrCNAME(link(c.prefix, i), link(c.prefix, i+1)))
		}
		add(rrA(link(c.prefix, c.hops), 300, "10.6.6.6"))
	}
	add(rrCNAME(link("l", 0), link("l", 1)))
	add(rrCNAME(link("l", 1), link("l", 0)))
	for _, h := range []struct {
		addr string
		z    *zone.Zone
	}{{"10.0.2.1", uclaZ}, {"10.0.2.2", uclaZ}, {"10.0.3.1", comZ}} {
		f.net.Register(&simnet.Host{Addr: transport.Addr(h.addr), Zone: h.z.Origin(), Handler: authserver.New(h.z)})
	}

	res, err := f.cs.Resolve(context.Background(), dnswire.MustName(link("a", 0)), dnswire.TypeA)
	if err != nil || len(res.Answer) != 9 {
		t.Fatalf("8-hop chain: %v, %d records; want the 8 CNAMEs and the A", err, len(res.Answer))
	}
	for _, name := range []string{link("b", 0), link("l", 0)} {
		if _, err := f.cs.Resolve(context.Background(), dnswire.MustName(name), dnswire.TypeA); !errors.Is(err, ErrResolutionFailed) {
			t.Errorf("%s: err = %v, want ErrResolutionFailed (chain too long)", name, err)
		}
	}
}

func TestResolveNoDataAnswer(t *testing.T) {
	f := newFixture(t, Config{})
	res, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeAAAA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if res.RCode != dnswire.RCodeNoError || len(res.Answer) != 0 {
		t.Errorf("NODATA result = %+v", res)
	}
}

func TestResolveMXAndTXTTypes(t *testing.T) {
	f := newFixture(t, Config{})
	res, err := f.cs.Resolve(context.Background(), dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if err != nil {
		t.Fatalf("Resolve NS: %v", err)
	}
	if len(res.Answer) != 2 {
		t.Errorf("NS answer = %v", res.Answer)
	}
}

func TestCacheStatsApproxBytes(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	st := f.cs.CacheStats()
	if st.ApproxBytes <= 0 {
		t.Errorf("ApproxBytes = %d, want > 0", st.ApproxBytes)
	}
	// Sanity: bytes scale with records (at least ~12 bytes per record).
	if st.ApproxBytes < st.Records*12 {
		t.Errorf("ApproxBytes = %d implausibly small for %d records", st.ApproxBytes, st.Records)
	}
}

// TestRenewalMeasures drives the renewal scheduler's three measures on a
// virtual clock: three zones fall due at one instant, one of which has
// lost its NS entry, and each refetch takes two seconds. The lost one
// counts as a lost credit, the second refetch starts two seconds after
// its due instant, and the queue holds the three zones before the sweep
// and the two renewed ones after it.
func TestRenewalMeasures(t *testing.T) {
	clk := simclock.NewVirtual(epoch)
	slow := transport.Exchanger(func(_ context.Context, _ transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		clk.Advance(2 * time.Second)
		zone := string(q.Question[0].Name)
		resp := q.Reply()
		resp.Flags.Authoritative = true
		resp.Answer = []dnswire.RR{rrNS(zone, 100, "ns."+zone)}
		return resp, nil
	})
	cs, err := NewCachingServer(Config{
		Transport: slow,
		Clock:     clk,
		RootHints: []ServerRef{{Host: dnswire.MustName("a.root-servers.net."), Addr: "10.0.0.1"}},
		Renewal:   LRU{C: 3},
	})
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}
	defer cs.Close()
	credits := map[dnswire.Name]float64{}
	for i, zone := range []string{"a.test.", "b.test.", "gone.test."} {
		cs.cache.Put([]dnswire.RR{rrNS(zone, 100, "ns."+zone)}, cache.CredAnswer, true)
		cs.cache.Put([]dnswire.RR{rrA("ns."+zone, 3600, fmt.Sprintf("10.0.9.%d", i+1))}, cache.CredAnswer, true)
		credits[dnswire.MustName(zone)] = 1
	}
	cs.RestoreRenewalCredits(credits)
	cs.RearmRenewals()
	if st := cs.Stats(); st.RenewalQueue != 3 {
		t.Fatalf("RenewalQueue = %d before the sweep, want 3", st.RenewalQueue)
	}
	cs.cache.Evict(dnswire.MustName("gone.test."), dnswire.TypeNS)

	due, _ := cs.NextRenewalDue()
	clk.AdvanceTo(due)
	if n := cs.ProcessDueRenewals(context.Background(), due); n != 2 {
		t.Fatalf("ProcessDueRenewals issued %d refetches, want 2", n)
	}
	st := cs.Stats()
	if st.RenewalLostCredit != 1 {
		t.Errorf("RenewalLostCredit = %d, want 1 (gone.test.)", st.RenewalLostCredit)
	}
	if st.RenewalDelayUS != 2e6 {
		t.Errorf("RenewalDelayUS = %d, want 2 000 000 (0 s, then 2 s after due)", st.RenewalDelayUS)
	}
	if st.RenewalDelayMaxUS != 1<<21 {
		t.Errorf("RenewalDelayMaxUS = %d, want %d, the bound of the 2 s bucket", st.RenewalDelayMaxUS, 1<<21)
	}
	if st.RenewalQueue != 2 {
		t.Errorf("RenewalQueue = %d after the sweep, want the 2 renewed zones", st.RenewalQueue)
	}
}
