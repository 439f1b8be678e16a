// Package sim is the trace-driven simulation driver: it wires a generated
// topology, a query trace, an attack schedule, and one or more configured
// caching servers together over a virtual clock, replays the trace, and
// collects the measurements the paper reports — failed-query percentages
// at the stub-resolver and caching-server levels, message counts, IRR
// expiry gaps, and cache-occupancy series.
//
// Fleet is the only virtual-time driver in the tree: every replay — Run,
// the restart and mesh experiments, the mesh fleet tests — is a loop over
// its AdvanceTo, Resolve and Restart.
package sim

import (
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
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
	// ValidateDNSSEC turns on chain validation: NewFleet hands the tree's
	// TrustAnchors to core.Config, which validates exactly when it has
	// some. The tree must be generated with topology.Params.Signed.
	ValidateDNSSEC bool
	// ServeStale enables the Ballani & Francis stale-record baseline with
	// the given retention window (0 = off).
	ServeStale time.Duration
	// Prefetch is meant to enable unbound-style early refresh of hot
	// answers, but the Scheme → core.Config mapping has never copied it:
	// the "Prefetch SR" column of results_full.txt was frozen equal to the
	// DNS column. Copying it changes that column, so it waits for a change
	// that may regenerate the frozen file (ROADMAP, open items).
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
	f, err := NewFleet(simclock.NewVirtual(s.Trace.Start), s, parts, nil)
	if err != nil {
		return nil, err
	}
	res := f.Res
	if s.SampleEvery > 0 {
		res.ZoneSeries = metrics.NewSeries("zones", 4096)
		res.RecordSeries = metrics.NewSeries("records", 4096)
	}
	nextSample := s.Trace.Start
	for _, q := range s.Trace.Queries {
		// Frozen order (Fig. 12 and Table 2 depend on it): every renewal
		// due up to the query runs first, then the occupancy samples due up
		// to the query are taken, each stamped with its own sample time.
		if s.SampleEvery > 0 && !nextSample.After(q.At) {
			f.RenewTo(q.At)
			for ; !nextSample.After(q.At); nextSample = nextSample.Add(s.SampleEvery) {
				f.Clock.AdvanceTo(nextSample)
				var occ cache.Stats
				for _, cs := range f.Servers {
					occ = occ.Add(cs.CacheStats())
				}
				res.ZoneSeries.Append(nextSample, float64(occ.Zones))
				res.RecordSeries.Append(nextSample, float64(occ.Records))
			}
		}
		f.Resolve(q)
	}
	return f.Finish(), nil
}
