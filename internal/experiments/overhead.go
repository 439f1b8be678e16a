package experiments

import (
	"fmt"
	"math"
	"time"

	"resilientdns/internal/sim"
)

// occupancyRows are the schemes Table 2 and Figure 12 tabulate, each on
// the topology it is deployed over (the long-TTL ones on the override
// trees), with no attack and the cache sampled every two hours. Renewal
// policies run in combination with refresh, as in the paper's evaluation.
// Vanilla DNS comes first: Table 2 measures the others against it.
func occupancyRows() []row {
	on := func(longTTL time.Duration, sc sim.Scheme) row {
		sp := spec(0, 0)
		sp.scheme, sp.tree.longTTL, sp.sample = sc, longTTL, 2*time.Hour
		return row{sc.Name, sp}
	}
	combo := sim.RefreshRenew(alfu5)
	combo.Name = "Combination(3d+A-LFU5)"
	rows := []row{on(0, sim.Vanilla()), on(0, sim.Refresh())}
	for _, p := range credit5 {
		rows = append(rows, on(0, sim.RefreshRenew(p)))
	}
	return append(rows, on(7*24*time.Hour, sim.Scheme{Name: "Long-TTL(7d)+Refresh", RefreshTTL: true}), on(3*24*time.Hour, combo))
}

// vsVanilla is a scheme's message change and cache-occupancy multipliers
// against vanilla DNS's, each summed over the traces of its row.
func vsVanilla(vanilla, row []*outcome) (dMsgs, zones, records float64) {
	sum := func(os []*outcome) (msgs, zones, records float64) {
		for _, o := range os {
			msgs += float64(o.MessagesOut())
			zones += o.ZoneSeries.MeanValue()
			records += o.RecordSeries.MeanValue()
		}
		return msgs, zones, records
	}
	bm, bz, br := sum(vanilla)
	m, z, r := sum(row)
	return (m - bm) / bm, z / bz, r / br
}

// table2 reproduces Table 2: per-scheme message overhead versus vanilla
// DNS (negative = fewer messages) and cache-occupancy multipliers, each
// summed over the 7-day traces.
func table2(s *Suite) plan {
	rows := occupancyRows()
	delta := func(rows [][]*outcome, i int) float64 { d, _, _ := vsVanilla(rows[0], rows[i]); return d }
	p := plan{Table: Table{
		ID:      "table2",
		Title:   "Message overhead vs vanilla DNS, and memory (cache occupancy) multipliers",
		Columns: []string{"Scheme", "ΔMessages", "Zones ×", "Records ×"},
	}, width: weekTraces, claims: []claim{
		note("adaptive renewal policies cost the most messages (small-TTL zones refetch often)", func(rows [][]*outcome) (string, bool) {
			adaptive, other := min(delta(rows, 4), delta(rows, 5)), max(delta(rows, 1), delta(rows, 2), delta(rows, 3), delta(rows, 6), delta(rows, 7))
			return fmt.Sprintf("adaptive ≥ %+.1f%%, the others ≤ %+.1f%%", 100*adaptive, 100*other), adaptive > other
		}),
		note("refresh and long-TTL reduce message counts; the combination stays cheap", func(rows [][]*outcome) (string, bool) {
			ref, long, combo := delta(rows, 1), delta(rows, 6), delta(rows, 7)
			return fmt.Sprintf("refresh %+.1f%%, long-TTL %+.1f%%, combination %+.1f%%", 100*ref, 100*long, 100*combo), ref < 0 && long < 0 && combo < 0
		}),
		note("occupancy multipliers stay in the 1-3x range (tens of MBs in practice)", func(rows [][]*outcome) (string, bool) {
			lo, hi := multipliers(rows)
			return fmt.Sprintf("%.2f–%.2f×", lo, hi), lo >= 1 && hi <= 3
		}),
	}}
	for _, r := range rows {
		for i := 0; i < weekTraces; i++ {
			r.spec.trace = i
			p.specs = append(p.specs, r.spec)
		}
	}
	p.fill = func(t *Table, res []*outcome) {
		for i, r := range rows[1:] {
			d, z, rec := vsVanilla(res[:weekTraces], res[(i+1)*weekTraces:(i+2)*weekTraces])
			t.Rows = append(t.Rows, []string{r.label, fmt.Sprintf("%+.1f%%", 100*d), fmt.Sprintf("%.2f", z), fmt.Sprintf("%.2f", rec)})
		}
	}
	return p
}

// fig12 reproduces Figure 12: zones and records cached over time for the
// month-long trace, per scheme (refresh alone is not plotted).
func fig12(s *Suite) plan {
	rows := occupancyRows()
	rows = append(rows[:1], rows[2:]...)
	for i := range rows {
		rows[i].spec.trace = weekTraces
	}
	series := func(header string, f func(*outcome) float64) column {
		return column{header, nil, func(o *outcome) string { return fmt.Sprintf("%.0f", f(o)) }}
	}
	return grid("fig12", "Cache occupancy over one month (TRC6)", "Scheme", rows, []column{
		series("Zones mean", func(o *outcome) float64 { return o.ZoneSeries.MeanValue() }),
		series("Zones max", func(o *outcome) float64 { return o.ZoneSeries.MaxValue() }),
		series("Records mean", func(o *outcome) float64 { return o.RecordSeries.MeanValue() }),
		series("Records max", func(o *outcome) float64 { return o.RecordSeries.MaxValue() }),
	}, note("proposed schemes cache ~2-3x more objects than vanilla DNS", func(rows [][]*outcome) (string, bool) {
		lo, hi := multipliers(rows)
		return fmt.Sprintf("%.2f–%.2f×", lo, hi), lo >= 1.2 && hi >= 2 && hi <= 3
	}))
}

// multipliers is the range of the schemes' zone and record occupancy over
// vanilla DNS's, the first row's.
func multipliers(rows [][]*outcome) (lo, hi float64) {
	zLo, zHi := extremes(rows[1:], func(r []*outcome) float64 { _, z, _ := vsVanilla(rows[0], r); return z })
	rLo, rHi := extremes(rows[1:], func(r []*outcome) float64 { _, _, rec := vsVanilla(rows[0], r); return rec })
	return min(zLo, rLo), max(zHi, rHi)
}

// ablationChildIRRs shows that TTL refresh depends on child answers
// carrying the zone IRRs: with AttachApexNS disabled at the servers,
// refresh degrades to vanilla behaviour.
func ablationChildIRRs(s *Suite) plan {
	return grid("ablation-childirr", "Refresh with vs without child-carried IRRs (6h attack)", "Trace",
		s.weekRows(sixHours), []column{
			{"Refresh SR", scheme(sim.Refresh()), srFail},
			{"Refresh(no child IRRs) SR", func(sp *runSpec) { sp.scheme, sp.noChildIRRs = sim.Refresh(), true }, srFail},
			{"DNS SR", nil, srFail},
		}, note("without child-carried IRRs, refresh loses most of its benefit",
			most(1, func(r []*outcome) bool { return sr(r[1]) > sr(r[0]) && sr(r[1]) >= (sr(r[0])+sr(r[2]))/2 })))
}

// ablationRenewalWithoutRefresh compares renewal alone against
// refresh+renewal: the paper always pairs them, and this shows why.
func ablationRenewalWithoutRefresh(s *Suite) plan {
	both := scheme(sim.RefreshRenew(alfu5))
	renewOnly := scheme(sim.Scheme{Name: "RenewOnly+A-LFU(5)", Renewal: alfu5})
	return grid("ablation-refresh", "Renewal with vs without TTL refresh (A-LFU 5, 6h attack)", "Trace",
		s.weekRows(sixHours), []column{
			{"Refresh+Renew SR", both, srFail},
			{"Renew-only SR", renewOnly, srFail},
			{"Messages Refresh+Renew", both, messages},
			{"Messages Renew-only", renewOnly, messages},
		},
		note("renewal alone already provides most of the resilience but refetches more",
			each(func(r []*outcome) bool {
				return sr(r[1]) <= sr(r[0])+near && r[1].MessagesOut() > r[0].MessagesOut()
			})),
		note("refresh piggybacks on demand traffic, renewal pays explicit queries",
			each(func(r []*outcome) bool { return r[1].ServerStats.RenewalQueries > r[0].ServerStats.RenewalQueries })))
}

// ablationNegativeCache measures the message saving from negative caching,
// which the paper's simulations leave out.
func ablationNegativeCache(s *Suite) plan {
	return grid("ablation-negcache", "Negative caching: message counts (no attack)", "Trace",
		s.weekRows(0), []column{
			{"Messages (no negcache)", nil, messages},
			{"Messages (1h negcache)", scheme(sim.Scheme{Name: "DNS+negcache", NegativeTTL: time.Hour}), messages},
		})
}

// maxDamage compares the root+TLD blackout with the greedy maximum-damage
// target selection of §6, at equal zone budgets.
func maxDamage(s *Suite) plan {
	return grid("maxdamage", "Root+TLD blackout vs greedy max-damage target set (6h, vanilla DNS)", "Trace",
		s.weekRows(sixHours), []column{
			{"Root+TLD SR", nil, srFail},
			{"MaxDamage SR", func(sp *runSpec) { sp.maxDamage = true }, srFail},
			{"Budget", nil, func(*outcome) string { return fmt.Sprintf("%d", s.damageBudget()) }},
		}, note("the root+TLD attack is close to the greedy maximum-damage attack (§6)",
			most(1, func(r []*outcome) bool { return math.Abs(sr(r[1])-sr(r[0])) <= 0.10 })))
}
