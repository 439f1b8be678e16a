package sim

// The parent commit's RunPartitioned, kept verbatim as the reference the
// Fleet-driven Run is compared against (only the names of the function and
// of its two helpers carry a ref prefix): its own clock, network, config
// literal and hand-merged renewal loop. It is the oracle, not a second
// driver: nothing outside this file may call it.

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/topology"
	"resilientdns/internal/workload"
)

func referenceRunPartitioned(s Scenario, parts int) (*Results, error) {
	if s.Tree == nil {
		return nil, fmt.Errorf("sim: Scenario.Tree is required")
	}
	if parts < 1 {
		return nil, fmt.Errorf("sim: parts must be >= 1, got %d", parts)
	}
	clk := simclock.NewVirtual(s.Trace.Start)
	net := simnet.New(clk)
	// Virtual exchanges are free in time: the trace timestamps alone
	// drive the clock, exactly as in the paper's simulator. (Timeout
	// accounting is still exact: a blacked-out server yields an error.)
	net.RTT = 0
	net.Timeout = 0
	s.Tree.InstallOpt(net, !s.NoChildIRRs)
	net.SetAttack(s.Attack)

	res := &Results{Scheme: s.Scheme.Name, Trace: s.Trace.Label}
	if s.SampleEvery > 0 {
		res.ZoneSeries = metrics.NewSeries("zones", 4096)
		res.RecordSeries = metrics.NewSeries("records", 4096)
	}

	servers := make([]*core.CachingServer, parts)
	for i := range servers {
		cfg := core.Config{
			Transport:   net,
			Clock:       clk,
			RootHints:   s.Tree.RootHints,
			RefreshTTL:  s.Scheme.RefreshTTL,
			Renewal:     s.Scheme.Renewal,
			MaxTTL:      s.Scheme.MaxTTL,
			NegativeTTL: s.Scheme.NegativeTTL,
			ServeStale:  s.Scheme.ServeStale,
			OnGap: func(key cache.Key, gap, origTTL time.Duration) {
				if key.Type != dnswire.TypeNS {
					return
				}
				res.GapAbs.AddDuration(gap)
				if origTTL > 0 {
					res.GapFrac.Add(float64(gap) / float64(origTTL))
				}
			},
		}
		if s.Scheme.ValidateDNSSEC {
			cfg.TrustAnchors = s.Tree.TrustAnchors
		}
		cs, err := core.NewCachingServer(cfg)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		servers[i] = cs
	}

	ctx := context.Background()
	nextSample := s.Trace.Start
	for _, q := range s.Trace.Queries {
		// Renewals due before this query fire at their exact instants,
		// globally ordered across all caching servers.
		for {
			var next *core.CachingServer
			var nextDue time.Time
			for _, cs := range servers {
				if due, ok := cs.NextRenewalDue(); ok && !due.After(q.At) {
					if next == nil || due.Before(nextDue) {
						next, nextDue = cs, due
					}
				}
			}
			if next == nil {
				break
			}
			clk.AdvanceTo(nextDue)
			res.refAccountCS(next, s.Attack, clk.Now(), func() { next.ProcessDueRenewals(ctx, clk.Now()) })
		}
		// Occupancy samples between events.
		if s.SampleEvery > 0 {
			for !nextSample.After(q.At) {
				clk.AdvanceTo(nextSample)
				res.refSample(servers, nextSample)
				nextSample = nextSample.Add(s.SampleEvery)
			}
		}
		clk.AdvanceTo(q.At)

		cs := servers[q.Client%parts]
		underAttack := s.Attack.Active(q.At)
		var err error
		res.refAccountCS(cs, s.Attack, q.At, func() { _, err = cs.Resolve(ctx, q.Name, q.Type) })

		res.SRQueriesTotal++
		if err != nil {
			res.SRFailedTotal++
		}
		if underAttack {
			res.SRQueriesAttack++
			if err != nil {
				res.SRFailedAttack++
			}
		}
	}

	for _, cs := range servers {
		st := cs.CacheStats()
		res.FinalCache.Entries += st.Entries
		res.FinalCache.Records += st.Records
		res.FinalCache.Zones += st.Zones
		res.FinalCache.InfraEntries += st.InfraEntries
		res.ServerStats = metrics.Sum(res.ServerStats, cs.Stats())
	}
	return res, nil
}

// accountCS runs one event on cs and attributes the upstream queries it
// sent to totals and, when the attack is active at now, to the
// attack-window counters. It brackets every replayed query, so it reads
// the two counters it needs rather than a whole Stats() snapshot.
func (r *Results) refAccountCS(cs *core.CachingServer, sched attack.Schedule, now time.Time, event func()) {
	sent, failed := cs.Resolver().UpstreamQueries()
	event()
	sentAfter, failedAfter := cs.Resolver().UpstreamQueries()
	dq, df := sentAfter-sent, failedAfter-failed
	r.CSQueriesTotal += dq
	r.CSFailedTotal += df
	if sched.Active(now) {
		r.CSQueriesAttack += dq
		r.CSFailedAttack += df
	}
}

// sample appends one cache-occupancy point, summed over all servers.
func (r *Results) refSample(servers []*core.CachingServer, at time.Time) {
	zones, records := 0, 0
	for _, cs := range servers {
		st := cs.CacheStats()
		zones += st.Zones
		records += st.Records
	}
	r.ZoneSeries.Append(at, float64(zones))
	r.RecordSeries.Append(at, float64(records))
}

// quickScenario is the experiment suite's quick scale (6 TLDs × 25 SLDs,
// 80 clients, 9000 queries over 7 days) with a 24 h root+TLD blackout on
// day seven.
func quickScenario(t *testing.T, scheme Scheme) Scenario {
	t.Helper()
	tree := quickTree(t)
	gp := workload.DefaultGenParams("QUICK", 1001, epoch)
	gp.Clients = 80
	gp.TotalQueries = 9000
	return Scenario{
		Tree:   tree,
		Trace:  workload.Generate(gp, tree.QueryableNames()),
		Attack: attack.RootAndTLDs(epoch.Add(6*24*time.Hour), 24*time.Hour, tree.AllZoneNames()),
		Scheme: scheme,
	}
}

func quickTree(t *testing.T) *topology.Tree {
	t.Helper()
	p := topology.DefaultParams(1)
	p.NumTLDs = 6
	p.SLDsPerTLD = 25
	tree, err := topology.Generate(p)
	if err != nil {
		t.Fatalf("topology.Generate: %v", err)
	}
	return tree
}

// TestFleetRunMatchesReference replays the same scenarios through the
// parent's loop and through the Fleet-driven one and requires the whole
// Results to agree: every counter, both CDFs sample by sample, both series
// point by point, FinalCache's four fields the parent summed, ServerStats.
func TestFleetRunMatchesReference(t *testing.T) {
	sampled := RefreshRenew(core.ALFU{C: 5, MaxDays: core.DefaultLFUMax(5)})
	cases := []struct {
		scheme Scheme
		sample time.Duration
	}{
		{Vanilla(), 0},
		{sampled, 6 * time.Hour},
		{Scheme{Name: "ServeStale+Prefetch", ServeStale: 7 * 24 * time.Hour, Prefetch: true}, 0},
	}
	for _, c := range cases {
		for _, servers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%d", c.scheme.Name, servers), func(t *testing.T) {
				s := quickScenario(t, c.scheme)
				s.SampleEvery = c.sample
				want, err := referenceRunPartitioned(s, servers)
				if err != nil {
					t.Fatal(err)
				}
				got, err := RunPartitioned(s, servers)
				if err != nil {
					t.Fatal(err)
				}
				if want.SRQueriesAttack == 0 || want.CSFailedAttack == 0 {
					t.Fatalf("reference run saw no attack: %d SR queries, %d failed CS queries in the window",
						want.SRQueriesAttack, want.CSFailedAttack)
				}
				if c.sample > 0 && want.ZoneSeries.Len() < 20 {
					t.Fatalf("reference run took %d samples", want.ZoneSeries.Len())
				}
				// The reference sums only these four fields of FinalCache
				// (it dropped StaleEntries and ApproxBytes, the bug fixed
				// beside it, and predates the others); they must match.
				fc := got.FinalCache
				got.FinalCache = cache.Stats{Entries: fc.Entries, Records: fc.Records, Zones: fc.Zones, InfraEntries: fc.InfraEntries}
				gv, wv := reflect.ValueOf(*got), reflect.ValueOf(*want)
				for i := 0; i < gv.NumField(); i++ {
					if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
						t.Errorf("Results.%s differs:\n got %.300s\nwant %.300s", gv.Type().Field(i).Name,
							fmt.Sprintf("%+v", gv.Field(i).Interface()), fmt.Sprintf("%+v", wv.Field(i).Interface()))
					}
				}
			})
		}
	}
}
