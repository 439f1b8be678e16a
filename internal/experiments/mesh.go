package experiments

import (
	"fmt"
	"time"

	"resilientdns/internal/core"
	"resilientdns/internal/mesh"
	"resilientdns/internal/sim"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/workload"
)

// Mesh is the fleet-blackout experiment: the same trace is served by one
// solo caching server, by three independent servers with clients sharded
// across them, and by the same three servers joined into a cooperative
// mesh (rendezvous-hashed renewal ownership, IRR gossip, peer-fetch
// fallback). All variants run the combined refresh+A-LFU scheme through
// a 24-hour root+TLD blackout.
//
// The fleet claims under test: the mesh fleet's aggregate upstream
// renewal traffic collapses to roughly one owner refetch per zone per
// TTL (at least 2x below the no-mesh fleet), and its attack-window
// failure rate drops below the no-mesh fleet's because gossip keeps all
// three caches warm and peer fetch recovers answers a member never
// cached itself.
//
// It post-dates the frozen results_full.txt, so its row in the experiment
// table is not marked frozen and `dnssim -exp all` leaves it out.
func (s *Suite) Mesh() (*Table, error) {
	const attackDur = 24 * time.Hour
	tr := s.traces[0]

	type variant struct {
		label    string
		n        int
		withMesh bool
	}
	variants := []variant{
		{"1 instance, all clients", 1, false},
		{"3 instances, no mesh", 3, false},
		{"3 instances, mesh", 3, true},
	}

	t := &Table{
		ID:      "mesh",
		Title:   fmt.Sprintf("Fleet behaviour through a %v root+TLD blackout, Refresh+A-LFU(5), clients sharded across instances (%s)", attackDur, tr.Label),
		Columns: []string{"fleet", "attack fail %", "renewal queries (aggregate)", "renewals deferred", "peer-fetch answered"},
		Notes: []string{
			"mesh fleet aggregate renewal traffic should be >=2x below the no-mesh fleet (one owner refetch per zone per TTL)",
			"mesh fleet attack failure rate should drop below the no-mesh fleet's: gossip warms all caches, peer fetch recovers the rest",
		},
	}
	for _, v := range variants {
		res, err := s.runMeshFleet(tr, attackDur, v.n, v.withMesh)
		if err != nil {
			return nil, fmt.Errorf("experiments: mesh: %w", err)
		}
		t.Rows = append(t.Rows, []string{
			v.label,
			pct(res.SRFailRate()),
			fmt.Sprintf("%d", res.ServerStats.RenewalQueries),
			fmt.Sprintf("%d", res.ServerStats.RenewalDeferred),
			fmt.Sprintf("%d", res.ServerStats.PeerFetchAnswered),
		})
	}
	return t, nil
}

// runMeshFleet replays tr against n caching servers (clients sharded by
// client id), optionally joined into a cooperative mesh over the
// deterministic MeshNet fabric sharing the trace's virtual clock.
func (s *Suite) runMeshFleet(tr workload.Trace, attackDur time.Duration, n int, withMesh bool) (*sim.Results, error) {
	clk := simclock.NewVirtual(tr.Start)
	mnet := simnet.NewMeshNet(clk)
	mnet.RTT = 0
	mnet.Timeout = 0

	var nodes []*mesh.Node
	for i := 0; withMesh && i < n; i++ {
		self := meshAddr(i)
		var peers []string
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, meshAddr(j))
			}
		}
		node, err := mesh.NewNode(mesh.Config{
			Self:         self,
			Key:          []byte("experiment-fleet-key"),
			Peers:        peers,
			Transport:    mnet.Bind(self),
			Clock:        clk,
			OwnerRenewal: true,
		})
		if err != nil {
			return nil, err
		}
		mnet.Register(self, node.HandleFrame)
		nodes = append(nodes, node)
	}

	scheme := sim.RefreshRenew(core.ALFU{C: 5, MaxDays: core.DefaultLFUMax(5)})
	f, err := sim.NewFleet(clk, s.scenario(s.baseTree, tr, scheme, attackDur), n, func(i int, cfg *core.Config) {
		if withMesh {
			cfg.Fleet = nodes[i]
		}
	})
	if err != nil {
		return nil, err
	}
	if withMesh {
		for i, node := range nodes {
			node.SetBackend(f.Servers[i])
		}
		// Probe rounds keep failure detection current at every renewal
		// instant; one up front confirms the full mesh before any traffic
		// flows (MeshNet RTT is zero, so no virtual time passes).
		f.PreRenew = func(i int, now time.Time) { nodes[i].Tick(now) }
		for i := range nodes {
			f.PreRenew(i, clk.Now())
		}
	}

	for _, q := range tr.Queries {
		f.Resolve(q)
	}
	return f.Finish(), nil
}

// meshAddr is fleet member i's address on the MeshNet fabric.
func meshAddr(i int) string { return fmt.Sprintf("10.9.0.%d:7946", i+1) }
