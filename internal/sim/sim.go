// Package sim is the trace-driven simulation driver: it wires a generated
// topology, a query trace, an attack schedule, and one configured caching
// server together over a virtual clock, replays the trace, and collects
// the measurements the paper reports — failed-query percentages at the
// stub-resolver and caching-server levels, message counts, IRR expiry
// gaps, and cache-occupancy series.
package sim

import (
	"context"
	"fmt"
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

// Scheme configures the caching-server behaviour under test.
type Scheme struct {
	// Name labels the scheme in experiment output.
	Name string
	// RefreshTTL enables the TTL-refresh mechanism.
	RefreshTTL bool
	// Renewal enables TTL renewal with the given policy (nil = off).
	Renewal core.RenewalPolicy
	// MaxTTL overrides the cache TTL clamp (0 = default 7 days).
	MaxTTL time.Duration
	// NegativeTTL enables negative caching (0 = off, as in the paper).
	NegativeTTL time.Duration
	// ValidateDNSSEC turns on chain validation; the scenario's tree must
	// be generated with topology.Params.Signed and provide TrustAnchors.
	ValidateDNSSEC bool
	// ServeStale enables the Ballani & Francis stale-record baseline with
	// the given retention window (0 = off).
	ServeStale time.Duration
	// Prefetch enables unbound-style early refresh of hot answers.
	Prefetch bool
}

// Vanilla is the current-DNS baseline scheme.
func Vanilla() Scheme { return Scheme{Name: "DNS"} }

// Refresh is the TTL-refresh-only scheme.
func Refresh() Scheme { return Scheme{Name: "Refresh", RefreshTTL: true} }

// RefreshRenew combines TTL refresh with a renewal policy, as the paper's
// figures 6-9 do.
func RefreshRenew(p core.RenewalPolicy) Scheme {
	return Scheme{Name: "Refresh+" + p.Name(), RefreshTTL: true, Renewal: p}
}

// Scenario is one simulation run.
type Scenario struct {
	Tree   *topology.Tree
	Trace  workload.Trace
	Attack attack.Schedule
	Scheme Scheme
	// SampleEvery samples cache occupancy at this virtual-time interval
	// (0 disables the series).
	SampleEvery time.Duration
	// Seed feeds the simulated network (loss decisions).
	Seed int64
	// NoChildIRRs disables the authoritative servers' attachment of their
	// own IRRs to answers — the ablation that shows TTL refresh only
	// works because child answers carry the IRRs.
	NoChildIRRs bool
}

// Results aggregates one run's measurements.
type Results struct {
	Scheme string
	Trace  string

	// SRQueriesAttack / SRFailedAttack count stub-resolver queries (and
	// failures) during attack windows — the paper's upper graphs.
	SRQueriesAttack uint64
	SRFailedAttack  uint64
	// CSQueriesAttack / CSFailedAttack count caching-server → authoritative
	// queries during attack windows — the paper's lower graphs.
	CSQueriesAttack uint64
	CSFailedAttack  uint64

	// Totals over the whole run.
	SRQueriesTotal uint64
	SRFailedTotal  uint64
	CSQueriesTotal uint64
	CSFailedTotal  uint64

	// GapAbs / GapFrac are the Fig. 3 CDFs: IRR expiry-to-next-query
	// gaps in absolute seconds and as a fraction of the IRR TTL.
	GapAbs  metrics.CDF
	GapFrac metrics.CDF

	// ZoneSeries / RecordSeries track cached zones and records over time
	// (Fig. 12).
	ZoneSeries   *metrics.Series
	RecordSeries *metrics.Series

	// FinalCache is the cache occupancy at the end of the run.
	FinalCache cache.Stats
	// ServerStats is the caching server's cumulative counters.
	ServerStats core.Stats
}

// SRFailRate returns the fraction of stub-resolver queries that failed
// during attack windows.
func (r *Results) SRFailRate() float64 {
	return metrics.Ratio(r.SRFailedAttack, r.SRQueriesAttack)
}

// CSFailRate returns the fraction of caching-server queries that failed
// during attack windows.
func (r *Results) CSFailRate() float64 {
	return metrics.Ratio(r.CSFailedAttack, r.CSQueriesAttack)
}

// MessagesOut returns the total queries the caching server sent, the
// Table 2 message-overhead metric.
func (r *Results) MessagesOut() uint64 { return r.CSQueriesTotal }

// Run replays the scenario through one caching server.
func Run(s Scenario) (*Results, error) {
	return RunPartitioned(s, 1)
}

// RunPartitioned replays the scenario with the client population split
// across `parts` independent caching servers (client i talks to server
// i mod parts). The paper observes that SR-level results depend on how
// many stub resolvers share one cache; this sweeps that factor.
func RunPartitioned(s Scenario, parts int) (*Results, error) {
	if s.Tree == nil {
		return nil, fmt.Errorf("sim: Scenario.Tree is required")
	}
	if parts < 1 {
		return nil, fmt.Errorf("sim: parts must be >= 1, got %d", parts)
	}
	clk := simclock.NewVirtual(s.Trace.Start)
	net := simnet.New(clk, s.Seed)
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
		cs, err := core.NewCachingServer(core.Config{
			Transport:      net,
			Clock:          clk,
			RootHints:      s.Tree.RootHints,
			RefreshTTL:     s.Scheme.RefreshTTL,
			Renewal:        s.Scheme.Renewal,
			MaxTTL:         s.Scheme.MaxTTL,
			NegativeTTL:    s.Scheme.NegativeTTL,
			ValidateDNSSEC: s.Scheme.ValidateDNSSEC,
			TrustAnchors:   s.Tree.TrustAnchors,
			ServeStale:     s.Scheme.ServeStale,
			OnGap: func(key cache.Key, gap, origTTL time.Duration) {
				if key.Type != dnswire.TypeNS {
					return
				}
				res.GapAbs.AddDuration(gap)
				if origTTL > 0 {
					res.GapFrac.Add(float64(gap) / float64(origTTL))
				}
			},
		})
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
			res.accountCS(next, s.Attack, clk.Now(), func() { next.ProcessDueRenewals(ctx, clk.Now()) })
		}
		// Occupancy samples between events.
		if s.SampleEvery > 0 {
			for !nextSample.After(q.At) {
				clk.AdvanceTo(nextSample)
				res.sample(servers, nextSample)
				nextSample = nextSample.Add(s.SampleEvery)
			}
		}
		clk.AdvanceTo(q.At)

		cs := servers[q.Client%parts]
		underAttack := s.Attack.Active(q.At)
		var err error
		res.accountCS(cs, s.Attack, q.At, func() { _, err = cs.Resolve(ctx, q.Name, q.Type) })

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
func (r *Results) accountCS(cs *core.CachingServer, sched attack.Schedule, now time.Time, event func()) {
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
func (r *Results) sample(servers []*core.CachingServer, at time.Time) {
	zones, records := 0, 0
	for _, cs := range servers {
		st := cs.CacheStats()
		zones += st.Zones
		records += st.Records
	}
	r.ZoneSeries.Append(at, float64(zones))
	r.RecordSeries.Append(at, float64(records))
}
