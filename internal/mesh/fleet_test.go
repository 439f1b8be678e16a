package mesh

// Fleet integration tests: three full caching servers wired to three mesh
// nodes over the deterministic simnet fabrics, sharing one virtual clock.
// These are the end-to-end checks for the cooperative-mesh claims: one
// owner refetch per zone per TTL fleet-wide, gossip-warmed non-owner
// caches, peer-fetch answers during a hierarchy blackout, and partition
// recovery without a duplicate-renewal storm.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/sim"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/topology"
)

var fleetEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

type fleetMember struct {
	addr string
	cs   *core.CachingServer
	node *Node
}

type fleet struct {
	t       *testing.T
	sim     *sim.Fleet
	clk     *simclock.Virtual
	dnet    *simnet.Network
	mnet    *simnet.MeshNet
	tree    *topology.Tree
	members []*fleetMember
}

// newFleet builds n caching servers on a shared DNS simnet — a sim.Fleet,
// the same driver the experiment suite replays traces with — and, when
// withMesh is set, joins them into one mesh over a zero-latency MeshNet.
// The hierarchy is small but spans every TTL bucket, so renewal cycles
// of several lengths fall inside a short virtual horizon.
func newFleet(t *testing.T, n int, withMesh bool) *fleet {
	t.Helper()
	params := topology.DefaultParams(7)
	params.NumTLDs = 3
	params.SLDsPerTLD = 5
	tree, err := topology.Generate(params)
	if err != nil {
		t.Fatal(err)
	}

	clk := simclock.NewVirtual(fleetEpoch)
	mnet := simnet.NewMeshNet(clk)
	mnet.RTT = 0
	mnet.Timeout = 0

	f := &fleet{t: t, clk: clk, mnet: mnet, tree: tree}
	for i := 0; i < n; i++ {
		f.members = append(f.members, &fleetMember{addr: fmt.Sprintf("10.9.0.%d:7946", i+1)})
	}
	for i, m := range f.members {
		if !withMesh {
			break
		}
		var peers []string
		for j, o := range f.members {
			if j != i {
				peers = append(peers, o.addr)
			}
		}
		// The node comes first, without a backend, as in cmd/dnscache: it
		// is the server's Config.Fleet, and is bound to the server below.
		m.node, err = NewNode(Config{
			Self:      m.addr,
			Key:       testKey,
			Peers:     peers,
			Transport: mnet.Bind(m.addr),
			Clock:     clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		mnet.Register(m.addr, m.node.HandleFrame)
	}

	f.sim, err = sim.NewFleet(clk, sim.Scenario{
		Tree:   tree,
		Scheme: sim.RefreshRenew(core.ALFU{C: 5, MaxDays: core.DefaultLFUMax(5)}),
		Seed:   7,
	}, n, func(i int, cfg *core.Config) {
		if withMesh {
			cfg.Fleet = f.members[i].node
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	f.dnet = f.sim.Net
	for i, m := range f.members {
		m.cs = f.sim.Servers[i]
		if withMesh {
			m.node.SetBackend(m.cs)
		}
	}
	if withMesh {
		f.sim.PreRenew = func(i int, now time.Time) { f.members[i].node.Tick(now) }
	}
	return f
}

// tick runs one probe round on every node and advances one probe interval.
func (f *fleet) tick() {
	for _, m := range f.members {
		if m.node != nil {
			m.node.Tick(f.clk.Now())
		}
	}
	f.clk.Advance(DefaultProbeInterval)
}

// confirm drives probe rounds until every node has cookie-confirmed every
// peer, i.e. the fleet is fully meshed.
func (f *fleet) confirm() {
	f.t.Helper()
	for round := 0; round < 10; round++ {
		f.tick()
		if f.allConfirmed() {
			return
		}
	}
	f.t.Fatalf("fleet never fully confirmed: %+v", f.members[0].node.Snapshot())
}

func (f *fleet) allConfirmed() bool {
	for _, m := range f.members {
		if m.node == nil {
			continue
		}
		snap := m.node.Snapshot()
		if len(snap.Peers) != len(f.members)-1 {
			return false
		}
		for _, p := range snap.Peers {
			if !p.Confirmed || p.State != "alive" {
				return false
			}
		}
	}
	return true
}

// targets returns the first n queryable names of the shared topology.
func (f *fleet) targets(n int) []topology.TargetName {
	names := f.tree.QueryableNames()
	if len(names) > n {
		names = names[:n]
	}
	return names
}

// warm resolves every target on the given members, filling caches and
// accruing renewal credit, exactly as live client traffic would.
func (f *fleet) warm(targets []topology.TargetName, members ...*fleetMember) {
	f.t.Helper()
	ctx := context.Background()
	for _, m := range members {
		for _, tn := range targets {
			if _, err := m.cs.Resolve(ctx, tn.Name, dnswire.TypeA); err != nil {
				f.t.Fatalf("warm %s on %s: %v", tn.Name, m.addr, err)
			}
		}
	}
}

// drain fires every member's renewals at their exact virtual instants up
// to horizon, with a mesh probe round before each so failure detection
// keeps pace with virtual time.
func (f *fleet) drain(horizon time.Time) { f.sim.AdvanceTo(horizon) }

func (f *fleet) renewalQueries() uint64 {
	var sum uint64
	for _, m := range f.members {
		sum += m.cs.Stats().RenewalQueries
	}
	return sum
}

func (f *fleet) renewalDeferred() uint64 {
	var sum uint64
	for _, m := range f.members {
		sum += m.cs.Stats().RenewalDeferred
	}
	return sum
}

// TestFleetRenewalDedupAndGossipWarm is the headline dedup claim: a
// three-member mesh fleet spends at most half (in practice about a third)
// of the aggregate renewal traffic of three solo servers over the same
// horizon, while gossip keeps every member's copy of each renewed zone
// alive — including the two non-owners who never refetched it.
func TestFleetRenewalDedupAndGossipWarm(t *testing.T) {
	horizon := fleetEpoch.Add(8 * time.Hour)

	solo := newFleet(t, 3, false)
	targets := solo.targets(36)
	solo.warm(targets, solo.members...)
	solo.drain(horizon)
	soloRenewals := solo.renewalQueries()
	if soloRenewals == 0 {
		t.Fatal("no-mesh baseline issued no renewals; topology or credit setup is broken")
	}

	mf := newFleet(t, 3, true)
	mf.confirm()
	mf.warm(mf.targets(36), mf.members...)
	mf.drain(horizon)
	meshRenewals := mf.renewalQueries()

	if meshRenewals == 0 {
		t.Fatal("mesh fleet issued no renewals")
	}
	if meshRenewals*2 > soloRenewals {
		t.Errorf("mesh fleet issued %d aggregate renewal queries, want ≤ half the no-mesh fleet's %d",
			meshRenewals, soloRenewals)
	}
	if mf.renewalDeferred() == 0 {
		t.Error("no renewals were deferred to fleet owners; ownership wiring is dead")
	}

	// Gossip warmth: zones whose IRR TTL is far shorter than the horizon
	// can only still be cached if renewals kept extending them — and on
	// the two non-owners, only the owner's gossip pushes did that.
	now := mf.clk.Now()
	warmZones := 0
	seen := map[dnswire.Name]bool{}
	for _, tn := range mf.targets(36) {
		if seen[tn.Zone] {
			continue
		}
		seen[tn.Zone] = true
		short, allWarm := false, true
		for _, m := range mf.members {
			e := m.cs.Cache().Peek(tn.Zone, dnswire.TypeNS)
			if e == nil || !e.Expires().After(now) {
				allWarm = false
				break
			}
			if e.OrigTTL() < 6*time.Hour {
				short = true
			}
		}
		if short && allWarm {
			warmZones++
		}
	}
	if warmZones == 0 {
		t.Error("no short-TTL zone stayed warm on all three members; gossip is not extending non-owner caches")
	}
}

// TestFleetBlackoutPeerFetch drives the paper's attack scenario at the
// fleet level: the root and TLD hierarchy is blacked out, a member with a
// cold cache cannot resolve locally, and the mesh peer-fetch fallback
// turns its SERVFAIL into an answer served from a warm peer's cache.
func TestFleetBlackoutPeerFetch(t *testing.T) {
	f := newFleet(t, 3, true)
	f.confirm()

	// A data name inside an SLD zone, cached only on members 1 and 2.
	targets := f.targets(36)
	var tn topology.TargetName
	for _, c := range targets {
		if f.tree.Zones[c.Zone] != nil && f.tree.Zones[c.Zone].Depth >= 2 {
			tn = c
			break
		}
	}
	if tn.Name == "" {
		t.Fatal("no SLD-depth target in topology")
	}
	f.warm([]topology.TargetName{tn}, f.members[1], f.members[2])

	// Black out the upper hierarchy and move just inside the window, so
	// the warm copies (≥1 min data TTL) are still live.
	start := f.clk.Now().Add(5 * time.Second)
	f.dnet.SetAttack(attack.RootAndTLDs(start, time.Hour, f.tree.AllZoneNames()))
	f.clk.AdvanceTo(start.Add(10 * time.Second))

	ctx := context.Background()
	res, err := f.members[0].cs.Resolve(ctx, tn.Name, dnswire.TypeA)
	if err != nil {
		t.Fatalf("cold member could not resolve %s during blackout despite warm peers: %v", tn.Name, err)
	}
	if len(res.Answer) == 0 {
		t.Fatalf("peer-fetched result for %s carries no answer: %+v", tn.Name, res)
	}
	st := f.members[0].cs.Stats()
	if st.PeerFetches == 0 || st.PeerFetchAnswered == 0 {
		t.Errorf("peer-fetch counters = attempted %d answered %d, want both ≥ 1",
			st.PeerFetches, st.PeerFetchAnswered)
	}

	// A name no member ever cached still fails: the fallback serves only
	// from peer caches, it never triggers recursive resolution on peers.
	cold := targets[len(targets)-1]
	if cold.Name == tn.Name {
		cold = targets[len(targets)-2]
	}
	if _, err := f.members[0].cs.Resolve(ctx, cold.Name, dnswire.TypeA); err == nil {
		t.Errorf("uncached %s resolved during blackout; peer fetch must not recurse", cold.Name)
	}
}

// TestFleetPartitionOwnershipTakeover isolates one member and checks that
// ownership re-derives cleanly: the survivors agree on exactly one new
// owner per zone, and a full renewal horizon afterwards costs them no
// more aggregate upstream traffic than a single perfectly-deduplicated
// server — i.e. no duplicate-renewal storm.
func TestFleetPartitionOwnershipTakeover(t *testing.T) {
	horizon := fleetEpoch.Add(8 * time.Hour)

	// Perfect-dedup yardstick: one solo server renews each zone exactly
	// once per cycle, which is what the surviving pair should match.
	solo := newFleet(t, 1, false)
	targets := solo.targets(36)
	solo.warm(targets, solo.members[0])
	solo.drain(horizon)
	soloRenewals := solo.renewalQueries()

	f := newFleet(t, 3, true)
	f.confirm()
	f.warm(f.targets(36), f.members...)

	victim := f.members[2]
	f.mnet.Isolate(victim.addr)
	for i := 0; i < DefaultDeadAfter*2+2; i++ {
		f.tick()
	}

	survivors := f.members[:2]
	for _, m := range survivors {
		for _, p := range m.node.Snapshot().Peers {
			if p.Addr == victim.addr && p.State != "dead" {
				t.Fatalf("%s still sees isolated %s as %q", m.addr, victim.addr, p.State)
			}
		}
	}

	// Exactly one survivor owns each zone — no gaps, no double owners.
	seen := map[dnswire.Name]bool{}
	for _, tn := range f.targets(36) {
		if seen[tn.Zone] {
			continue
		}
		seen[tn.Zone] = true
		owners := 0
		for _, m := range survivors {
			if m.node.OwnsRenewal(tn.Zone) {
				owners++
			}
		}
		if owners != 1 {
			t.Errorf("zone %s has %d owners among survivors, want exactly 1", tn.Zone, owners)
		}
		// The isolated member sees everyone else dead, so it owns its
		// whole keyspace locally — correct partition behaviour.
		if !victim.node.OwnsRenewal(tn.Zone) {
			t.Errorf("isolated member does not own %s locally", tn.Zone)
		}
	}

	f.drain(horizon)
	var survivorRenewals uint64
	for _, m := range survivors {
		survivorRenewals += m.cs.Stats().RenewalQueries
	}
	// 20% slack absorbs cycle-boundary offsets from the confirmation and
	// detection ticks; a duplicate-renewal storm would be ~2x.
	if survivorRenewals > soloRenewals+soloRenewals/5 {
		t.Errorf("survivors issued %d aggregate renewal queries vs perfect-dedup baseline %d: duplicate-renewal storm",
			survivorRenewals, soloRenewals)
	}
}
