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
	"resilientdns/internal/workload"
)

// Fleet is n caching servers built from one Scheme, sharing one virtual
// clock and one simulated network. It steps them with three primitives —
// AdvanceTo (RenewTo, then the clock), Resolve, Restart — and keeps the
// SR- and CS-level counters of Res as it goes; everything else about a run
// (what to sample, when to crash a member, what to print) is the caller's
// loop.
type Fleet struct {
	Clock   *simclock.Virtual
	Net     *simnet.Network
	Servers []*core.CachingServer
	// PreRenew, when set, runs for member i at every renewal instant,
	// just before that member's due renewals: the mesh probe round that
	// keeps failure detection in step with virtual time.
	PreRenew func(i int, now time.Time)
	// Res carries the counters the fleet keeps (SR and CS totals and
	// attack-window counts, the gap CDFs); it is allocated apart from the
	// fleet so that keeping a run's results does not keep its caches.
	Res *Results

	attack attack.Schedule
	config func(i int) core.Config
}

// NewFleet installs the scenario's tree and attack on a fresh network
// driven by clk and builds n servers. Each server's core.Config is mapped
// from the scenario's Scheme — here and nowhere else — and then handed to
// amend (nil for none) with the member's index, for what only the caller
// can add: a persistence observer, the mesh attachment.
func NewFleet(clk *simclock.Virtual, s Scenario, n int, amend func(i int, cfg *core.Config)) (*Fleet, error) {
	if s.Tree == nil {
		return nil, fmt.Errorf("sim: Scenario.Tree is required")
	}
	if n < 1 {
		return nil, fmt.Errorf("sim: parts must be >= 1, got %d", n)
	}
	net := simnet.New(clk, s.Seed)
	// Virtual exchanges are free in time: the trace timestamps alone
	// drive the clock, exactly as in the paper's simulator. (Timeout
	// accounting is still exact: a blacked-out server yields an error.)
	net.RTT = 0
	net.Timeout = 0
	s.Tree.InstallOpt(net, !s.NoChildIRRs)
	net.SetAttack(s.Attack)

	res := &Results{Scheme: s.Scheme.Name, Trace: s.Trace.Label}
	f := &Fleet{Clock: clk, Net: net, Servers: make([]*core.CachingServer, n), Res: res, attack: s.Attack}
	f.config = func(i int) core.Config {
		cfg := core.Config{
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
		}
		if amend != nil {
			amend(i, &cfg)
		}
		return cfg
	}
	for i := range f.Servers {
		if err := f.Restart(i); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Restart replaces server i with a fresh one built from the same config:
// the crash. Cache, renewal credit and queue, and upstream state of that
// member are gone; the others are untouched. The amend hook runs again, so
// a caller restoring a snapshot points it at the reopened store first.
func (f *Fleet) Restart(i int) error {
	cs, err := core.NewCachingServer(f.config(i))
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if old := f.Servers[i]; old != nil {
		old.Close()
	}
	f.Servers[i] = cs
	return nil
}

// AdvanceTo fires every renewal due at or before t (see RenewTo), then
// sets the clock to t; a t in the past moves nothing.
func (f *Fleet) AdvanceTo(t time.Time) {
	f.RenewTo(t)
	f.Clock.AdvanceTo(t)
}

// RenewTo fires every renewal due at or before t, fleet-wide and in
// global time order, and leaves the clock at the last renewal instant. At
// each instant every member, in index order, gets its PreRenew step and
// then its due renewals, whose upstream queries are charged at that
// instant, not at the query that follows. Callers other than AdvanceTo
// are replays whose frozen output has something else happen between the
// renewals due by a query and the query itself, stamped with its own
// time: Run's occupancy samples, the restart experiment's checkpoint and
// crash.
func (f *Fleet) RenewTo(t time.Time) {
	for {
		var next time.Time
		found := false
		for _, cs := range f.Servers {
			if due, ok := cs.NextRenewalDue(); ok && !due.After(t) && (!found || due.Before(next)) {
				next, found = due, true
			}
		}
		if !found {
			return
		}
		f.Clock.AdvanceTo(next)
		now := f.Clock.Now()
		for i, cs := range f.Servers {
			if f.PreRenew != nil {
				f.PreRenew(i, now)
			}
			f.account(cs, now, func() { cs.ProcessDueRenewals(context.Background(), now) })
		}
	}
}

// Resolve advances to q.At and resolves q on the server its client is
// assigned to (client mod n), counting the query and its outcome at the
// stub-resolver level.
func (f *Fleet) Resolve(q workload.Query) (*core.Result, error) {
	f.AdvanceTo(q.At)
	cs := f.Servers[q.Client%len(f.Servers)]
	var res *core.Result
	var err error
	f.account(cs, q.At, func() { res, err = cs.Resolve(context.Background(), q.Name, q.Type) })

	r := f.Res
	r.SRQueriesTotal++
	if err != nil {
		r.SRFailedTotal++
	}
	if f.attack.Active(q.At) {
		r.SRQueriesAttack++
		if err != nil {
			r.SRFailedAttack++
		}
	}
	return res, err
}

// Finish closes a run: it sums the current members' cache occupancy
// (after a sweep) and counters into Res, closes the members, and returns
// Res. What a member counted before a Restart went with it.
func (f *Fleet) Finish() *Results {
	for _, cs := range f.Servers {
		f.Res.FinalCache = f.Res.FinalCache.Add(cs.CacheStats())
		f.Res.ServerStats = metrics.Sum(f.Res.ServerStats, cs.Stats())
		cs.Close()
	}
	return f.Res
}

// account runs one event on cs and attributes the upstream queries it
// sent to totals and, when the attack is active at now, to the
// attack-window counters. It brackets every replayed query, so it reads
// the two counters it needs rather than a whole Stats() snapshot.
func (f *Fleet) account(cs *core.CachingServer, now time.Time, event func()) {
	sent, failed := cs.Resolver().UpstreamQueries()
	event()
	sentAfter, failedAfter := cs.Resolver().UpstreamQueries()
	dq, df := sentAfter-sent, failedAfter-failed
	r := f.Res
	r.CSQueriesTotal += dq
	r.CSFailedTotal += df
	if f.attack.Active(now) {
		r.CSQueriesAttack += dq
		r.CSFailedAttack += df
	}
}
