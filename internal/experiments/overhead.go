package experiments

import (
	"fmt"
	"time"

	"resilientdns/internal/core"
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
	return []row{
		on(0, sim.Vanilla()),
		on(0, sim.Refresh()),
		on(0, sim.RefreshRenew(core.LRU{C: 5})),
		on(0, sim.RefreshRenew(core.LFU{C: 5, Max: core.DefaultLFUMax(5)})),
		on(0, sim.RefreshRenew(core.ALRU{C: 5})),
		on(0, sim.RefreshRenew(alfu5)),
		on(7*24*time.Hour, sim.Scheme{Name: "Long-TTL(7d)+Refresh", RefreshTTL: true}),
		on(3*24*time.Hour, combo),
	}
}

// table2 reproduces Table 2: per-scheme message overhead versus vanilla
// DNS (negative = fewer messages) and cache-occupancy multipliers, each
// summed over the 7-day traces.
func table2(s *Suite) plan {
	rows := occupancyRows()
	p := plan{Table: Table{
		ID:      "table2",
		Title:   "Message overhead vs vanilla DNS, and memory (cache occupancy) multipliers",
		Columns: []string{"Scheme", "ΔMessages", "Zones ×", "Records ×"},
		Notes: []string{
			"adaptive renewal policies cost the most messages (small-TTL zones refetch often)",
			"refresh and long-TTL reduce message counts; the combination stays cheap",
			"occupancy multipliers stay in the 1-3x range (tens of MBs in practice)",
		},
	}}
	for _, r := range rows {
		for i := 0; i < weekTraces; i++ {
			r.spec.trace = i
			p.specs = append(p.specs, r.spec)
		}
	}
	p.fill = func(t *Table, res []*outcome) {
		type agg struct{ msgs, zones, records float64 }
		var baseline agg
		for i, r := range rows {
			var cur agg
			for _, o := range res[i*weekTraces : (i+1)*weekTraces] {
				cur.msgs += float64(o.MessagesOut())
				cur.zones += o.ZoneSeries.MeanValue()
				cur.records += o.RecordSeries.MeanValue()
			}
			if i == 0 {
				baseline = cur
				continue
			}
			t.Rows = append(t.Rows, []string{
				r.label,
				fmt.Sprintf("%+.1f%%", 100*(cur.msgs-baseline.msgs)/baseline.msgs),
				fmt.Sprintf("%.2f", cur.zones/baseline.zones),
				fmt.Sprintf("%.2f", cur.records/baseline.records),
			})
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
	}, "proposed schemes cache ~2-3x more objects than vanilla DNS")
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
		}, "without child-carried IRRs, refresh loses most of its benefit")
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
		"renewal alone already provides most of the resilience but refetches more",
		"refresh piggybacks on demand traffic, renewal pays explicit queries")
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
		}, "the root+TLD attack is close to the greedy maximum-damage attack (§6)")
}
