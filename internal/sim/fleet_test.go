package sim

import (
	"reflect"
	"testing"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
	"resilientdns/internal/topology"
	"resilientdns/internal/workload"
)

// stepFleet builds n servers over the quick-scale tree on a clock at epoch,
// with no trace: the tests below step it by hand.
func stepFleet(t *testing.T, scheme Scheme, n int, sched func(*topology.Tree) attack.Schedule, amend func(int, *core.Config)) (*Fleet, []topology.TargetName) {
	t.Helper()
	s := Scenario{Tree: quickTree(t), Scheme: scheme}
	if sched != nil {
		s.Attack = sched(s.Tree)
	}
	f, err := NewFleet(simclock.NewVirtual(epoch), s, n, amend)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	return f, s.Tree.QueryableNames()
}

// ask resolves name on server i at the given instant.
func ask(t *testing.T, f *Fleet, i int, at time.Time, name dnswire.Name) {
	t.Helper()
	if _, err := f.Resolve(workload.Query{At: at, Client: i, Name: name, Type: dnswire.TypeA}); err != nil {
		t.Fatalf("resolve %s on server %d: %v", name, i, err)
	}
}

func TestFleetRenewalsFireInGlobalTimeOrder(t *testing.T) {
	type renewal struct {
		at     time.Time
		server int
	}
	var log []renewal
	var f *Fleet
	recording := false
	f, names := stepFleet(t, RefreshRenew(core.LRU{C: 3}), 3, nil, func(i int, cfg *core.Config) {
		cfg.OnCacheChange = func(op cache.ChangeOp, key cache.Key, _ *cache.Entry) {
			if recording && op == cache.ChangeExtend && key.Type == dnswire.TypeNS {
				log = append(log, renewal{f.Clock.Now(), i})
			}
		}
	})
	// Every name goes to one server and, at the same instant, to the next
	// one, so each zone's renewals are due at the same time on two members
	// and a few seconds apart from the next zone's on other members.
	for k, tn := range names[:30] {
		at := epoch.Add(time.Duration(k) * 7 * time.Second)
		ask(t, f, k%3, at, tn.Name)
		ask(t, f, (k+1)%3, at, tn.Name)
	}
	recording = true
	f.AdvanceTo(epoch.Add(72 * time.Hour))

	if len(log) == 0 {
		t.Fatal("no renewal fired")
	}
	ties, interleaved := 0, 0
	servers := map[int]bool{}
	for k, r := range log {
		servers[r.server] = true
		if k == 0 {
			continue
		}
		prev := log[k-1]
		switch {
		case r.at.Before(prev.at):
			t.Fatalf("renewal %d on server %d at %v fired after one at %v on server %d", k, r.server, r.at, prev.at, prev.server)
		case r.at.Equal(prev.at) && r.server < prev.server:
			t.Fatalf("at %v server %d renewed after server %d: ties go by index", r.at, r.server, prev.server)
		case r.at.Equal(prev.at) && r.server > prev.server:
			ties++
		case r.server < prev.server:
			interleaved++
		}
	}
	if len(servers) != 3 || ties == 0 || interleaved == 0 {
		t.Errorf("log of %d renewals covers %d servers, %d same-instant pairs, %d returns to a lower index at a later time: the scenario does not exercise the order",
			len(log), len(servers), ties, interleaved)
	}
}

func TestFleetChargesRenewalsAtTheirOwnInstant(t *testing.T) {
	start, dur := epoch.Add(20*time.Minute), 12*time.Hour
	f, names := stepFleet(t, RefreshRenew(core.LRU{C: 3}), 1, func(tree *topology.Tree) attack.Schedule {
		return attack.RootAndTLDs(start, dur, tree.AllZoneNames())
	}, nil)
	for _, tn := range names[:40] {
		ask(t, f, 0, epoch, tn.Name)
	}
	if f.Res.CSQueriesAttack != 0 {
		t.Fatalf("%d CS queries charged to the window before it opened", f.Res.CSQueriesAttack)
	}
	warm := f.Res.CSQueriesTotal

	// The next query falls after the window; the renewals in between do not.
	after := start.Add(dur + time.Hour)
	ask(t, f, 0, after, names[0].Name)
	r := f.Res
	if r.SRQueriesAttack != 0 {
		t.Errorf("SRQueriesAttack = %d, no query was asked inside the window", r.SRQueriesAttack)
	}
	if r.CSQueriesAttack == 0 {
		t.Error("renewals inside the attack window were not charged to the attack counters")
	}
	if r.CSQueriesAttack > r.CSQueriesTotal-warm {
		t.Errorf("CSQueriesAttack = %d exceeds everything sent since the warm-up (%d)", r.CSQueriesAttack, r.CSQueriesTotal-warm)
	}
	if out := f.Servers[0].Stats().QueriesOut; r.CSQueriesTotal != out {
		t.Errorf("CSQueriesTotal = %d, the server sent %d", r.CSQueriesTotal, out)
	}
}

// TestRenewToChargesEarlierRenewals: renewals due at one instant run one
// after another, and each is judged by the clock as it starts, so it pays
// for the time the ones before it took. At a 2 s round trip, longer than
// renewLead, the second of two zones due together starts 2 s late and
// after its NS entry expired: on one member, whose sweep runs both, and
// on two, where the second member's turn at the instant comes after the
// first member's refetch.
func TestRenewToChargesEarlierRenewals(t *testing.T) {
	p := topology.DefaultParams(1)
	p.NumTLDs, p.SLDsPerTLD = 1, 4
	p.SubZoneFrac, p.SubSubZoneFrac, p.OutOfBailiwickFrac = 0, 0, 0
	// Every SLD's IRRs live an hour; the TLD's keep their 2 days.
	p.IRRTTLs = []topology.TTLChoice{{TTL: time.Hour, Weight: 1}}
	tree, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var hosts []dnswire.Name
	seen := map[dnswire.Name]bool{}
	for _, tn := range tree.QueryableNames() {
		if tree.Zones[tn.Zone].Depth == 2 && !seen[tn.Zone] && len(hosts) < 2 {
			seen[tn.Zone] = true
			hosts = append(hosts, tn.Name)
		}
	}
	if len(hosts) != 2 {
		t.Fatalf("the tree has %d SLDs with a host, want 2", len(hosts))
	}
	for _, members := range []int{1, 2} {
		f, err := NewFleet(simclock.NewVirtual(epoch), Scenario{Tree: tree, Scheme: RefreshRenew(core.LRU{C: 3})}, members, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, h := range hosts {
			ask(t, f, k%members, epoch, h)
		}
		f.Net.RTT = 2 * time.Second
		f.RenewTo(epoch.Add(time.Hour))
		var st core.Stats
		for _, cs := range f.Servers {
			st = metrics.Sum(st, cs.Stats())
		}
		if st.RenewalQueries != 2 || st.RenewalDelayUS < uint64((2*time.Second).Microseconds()) || st.RenewalLate != 1 {
			t.Errorf("%d members: %d renewal refetches, %d µs of delay, %d late; want 2, at least 2 s, 1",
				members, st.RenewalQueries, st.RenewalDelayUS, st.RenewalLate)
		}
	}
}

func TestFleetAdvanceToPastMovesNothing(t *testing.T) {
	ticks := 0
	f, names := stepFleet(t, RefreshRenew(core.LRU{C: 3}), 2, nil, nil)
	f.PreRenew = func(int, time.Time) { ticks++ }
	for k, tn := range names[:20] {
		ask(t, f, k%2, epoch, tn.Name)
	}
	f.AdvanceTo(epoch.Add(2 * time.Hour))
	if ticks == 0 {
		t.Fatal("no renewal instant in two hours; the scenario is too quiet")
	}
	now, res, ticked := f.Clock.Now(), *f.Res, ticks
	stats := []core.Stats{f.Servers[0].Stats(), f.Servers[1].Stats()}

	f.AdvanceTo(epoch.Add(time.Hour))
	if !f.Clock.Now().Equal(now) {
		t.Errorf("clock moved from %v to %v", now, f.Clock.Now())
	}
	if ticks != ticked || !reflect.DeepEqual(*f.Res, res) ||
		!reflect.DeepEqual([]core.Stats{f.Servers[0].Stats(), f.Servers[1].Stats()}, stats) {
		t.Error("AdvanceTo into the past ran renewals or moved counters")
	}
}

func TestFleetRestart(t *testing.T) {
	built := 0
	f, names := stepFleet(t, RefreshRenew(core.LRU{C: 3}), 2, nil, func(int, *core.Config) { built++ })
	for k, tn := range names[:20] {
		ask(t, f, k%2, epoch.Add(time.Duration(k)*time.Second), tn.Name)
	}
	old, other := f.Servers[0], f.Servers[1]
	if _, ok := old.NextRenewalDue(); !ok || old.Cache().Stats().Entries == 0 {
		t.Fatal("server 0 has nothing to lose")
	}
	type state struct {
		cache    cache.Stats
		credits  map[dnswire.Name]float64
		upstream []core.UpstreamServerState
		due      time.Time
		stats    core.Stats
	}
	snapshot := func(cs *core.CachingServer) state {
		due, _ := cs.NextRenewalDue()
		return state{cs.Cache().Stats(), cs.RenewalCredits(), cs.UpstreamStates(), due, cs.Stats()}
	}
	before := snapshot(other)
	if len(before.credits) == 0 || len(before.upstream) == 0 {
		t.Fatalf("server 1 has no credit or upstream state to keep: %+v", before)
	}

	if err := f.Restart(0); err != nil {
		t.Fatal(err)
	}
	if built != 3 {
		t.Errorf("amend ran %d times, want once per server plus once for the restart", built)
	}
	fresh := f.Servers[0]
	if fresh == old {
		t.Fatal("Restart kept the old server")
	}
	if got := snapshot(fresh); got.cache.Entries != 0 || len(got.credits) != 0 || len(got.upstream) != 0 || !got.due.IsZero() {
		t.Errorf("restarted server is not cold: %+v", got)
	}
	if f.Servers[1] != other || !reflect.DeepEqual(snapshot(other), before) {
		t.Errorf("Restart(0) disturbed server 1:\n got %+v\nwant %+v", snapshot(other), before)
	}
	sent := f.Res.CSQueriesTotal
	ask(t, f, 0, epoch.Add(time.Minute), names[0].Name)
	if f.Res.CSQueriesTotal == sent {
		t.Error("a name server 0 had cached resolved without upstream queries after the restart")
	}
}

// TestFleetAmendSeesSchemeConfig: the one Scheme → core.Config mapping
// hands amend the finished config, so a caller adding to it cannot drop
// what the scheme asked for (the restart experiment's own copy dropped
// DNSSEC validation and its trust anchors).
func TestFleetAmendSeesSchemeConfig(t *testing.T) {
	p := topology.DefaultParams(1)
	p.NumTLDs, p.SLDsPerTLD, p.Signed = 2, 3, true
	tree, err := topology.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	scheme := Scheme{
		Name: "everything", RefreshTTL: true, Renewal: core.LRU{C: 3}, MaxTTL: 72 * time.Hour,
		NegativeTTL: 30 * time.Second, ValidateDNSSEC: true, ServeStale: time.Hour, Prefetch: true,
	}
	var seen []core.Config
	changes := 0
	f, err := NewFleet(simclock.NewVirtual(epoch), Scenario{Tree: tree, Scheme: scheme}, 2, func(i int, cfg *core.Config) {
		if i != len(seen) {
			t.Errorf("amend called for server %d after %d calls", i, len(seen))
		}
		seen = append(seen, *cfg)
		cfg.OnCacheChange = func(cache.ChangeOp, cache.Key, *cache.Entry) { changes++ }
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("amend ran %d times for 2 servers", len(seen))
	}
	for i, cfg := range seen {
		if !cfg.RefreshTTL || cfg.Renewal != scheme.Renewal || cfg.MaxTTL != scheme.MaxTTL ||
			cfg.NegativeTTL != scheme.NegativeTTL || cfg.ServeStale != scheme.ServeStale {
			t.Errorf("server %d: scheme fields lost on the way to core.Config: %+v", i, cfg)
		}
		if len(cfg.TrustAnchors) == 0 {
			t.Errorf("server %d: a validating scheme reached core.Config without trust anchors", i)
		}
		if cfg.Clock != f.Clock || cfg.Transport == nil || cfg.OnGap == nil || len(cfg.RootHints) == 0 {
			t.Errorf("server %d: shared clock, network, hints or gap observer missing", i)
		}
		// Frozen, not intended: see Scheme.Prefetch. Whoever wires it
		// regenerates results_full.txt and flips this.
		if cfg.Prefetch {
			t.Errorf("server %d: Scheme.Prefetch now reaches core.Config; results_full.txt's Prefetch column changes with it", i)
		}
	}
	ask(t, f, 1, epoch, tree.QueryableNames()[0].Name)
	if changes == 0 {
		t.Error("what amend added (OnCacheChange) did not reach the server")
	}

	// Trust anchors are what turns validation on: a scheme that does not
	// validate gets none, even over a signed tree.
	scheme.ValidateDNSSEC = false
	if _, err := NewFleet(simclock.NewVirtual(epoch), Scenario{Tree: tree, Scheme: scheme}, 1, func(_ int, cfg *core.Config) {
		if len(cfg.TrustAnchors) != 0 {
			t.Errorf("a non-validating scheme reached core.Config with %d trust anchors", len(cfg.TrustAnchors))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFinalCacheSumsEveryField: the end-of-run sum used to copy four of
// cache.Stats' six fields by hand, so a serve-stale run reported no
// retained entries and every run zero bytes.
func TestFinalCacheSumsEveryField(t *testing.T) {
	res, err := RunPartitioned(quickScenario(t, Scheme{Name: "ServeStale(7d)", ServeStale: 7 * 24 * time.Hour}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if fc := res.FinalCache; fc.StaleEntries == 0 || fc.ApproxBytes == 0 || fc.Entries == 0 {
		t.Errorf("FinalCache = %+v, want retained stale entries and a byte estimate", fc)
	}
}
