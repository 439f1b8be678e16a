package experiments

import (
	"fmt"
	"time"

	"resilientdns/internal/core"
	"resilientdns/internal/mesh"
	"resilientdns/internal/sim"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
)

// meshFleet is the fleet-blackout experiment: the same trace is served by
// one solo caching server, by three independent servers with clients
// sharded across them, and by the same three servers joined into a
// cooperative mesh (rendezvous-hashed renewal ownership, IRR gossip,
// peer-fetch fallback). All variants run the combined refresh+A-LFU scheme
// through a 24-hour root+TLD blackout.
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
func meshFleet(s *Suite) plan {
	const attackDur = 24 * time.Hour
	variant := func(label string, n int, mesh bool) row {
		sp := spec(0, attackDur)
		sp.scheme, sp.servers, sp.mesh = sim.RefreshRenew(alfu5), n, mesh
		return row{label, sp}
	}
	counter := func(header string, f func(core.Stats) uint64) column {
		return column{header, nil, func(o *outcome) string { return fmt.Sprintf("%d", f(o.ServerStats)) }}
	}
	return grid("mesh",
		fmt.Sprintf("Fleet behaviour through a %v root+TLD blackout, Refresh+A-LFU(5), clients sharded across instances (%s)", attackDur, s.traces[0].Label),
		"fleet",
		[]row{
			variant("1 instance, all clients", 1, false),
			variant("3 instances, no mesh", 3, false),
			variant("3 instances, mesh", 3, true),
		},
		[]column{
			{"attack fail %", nil, srFail},
			counter("renewal queries (aggregate)", func(st core.Stats) uint64 { return st.RenewalQueries }),
			counter("renewals deferred", func(st core.Stats) uint64 { return st.RenewalDeferred }),
			counter("peer-fetch answered", func(st core.Stats) uint64 { return st.PeerFetchAnswered }),
		},
		"mesh fleet aggregate renewal traffic should be >=2x below the no-mesh fleet (one owner refetch per zone per TTL)",
		"mesh fleet attack failure rate should drop below the no-mesh fleet's: gossip warms all caches, peer fetch recovers the rest")
}

// runMeshFleet replays sc against n caching servers (clients sharded by
// client id) joined into a cooperative mesh over the deterministic MeshNet
// fabric sharing the trace's virtual clock.
func runMeshFleet(sc sim.Scenario, n int) (*sim.Results, error) {
	clk := simclock.NewVirtual(sc.Trace.Start)
	mnet := simnet.NewMeshNet(clk)
	mnet.RTT = 0
	mnet.Timeout = 0

	nodes := make([]*mesh.Node, n)
	for i := range nodes {
		self := meshAddr(i)
		var peers []string
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, meshAddr(j))
			}
		}
		node, err := mesh.NewNode(mesh.Config{
			Self:      self,
			Key:       []byte("experiment-fleet-key"),
			Peers:     peers,
			Transport: mnet.Bind(self),
			Clock:     clk,
		})
		if err != nil {
			return nil, err
		}
		mnet.Register(self, node.HandleFrame)
		nodes[i] = node
	}

	f, err := sim.NewFleet(clk, sc, n, func(i int, cfg *core.Config) { cfg.Fleet = nodes[i] })
	if err != nil {
		return nil, err
	}
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

	for _, q := range sc.Trace.Queries {
		f.Resolve(q)
	}
	return f.Finish(), nil
}

// meshAddr is fleet member i's address on the MeshNet fabric.
func meshAddr(i int) string { return fmt.Sprintf("10.9.0.%d:7946", i+1) }
