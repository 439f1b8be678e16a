package experiments

import (
	"fmt"
	"math"
	"slices"
	"time"

	"resilientdns/internal/core"
	"resilientdns/internal/metrics"
	"resilientdns/internal/sim"
	"resilientdns/internal/workload"
)

// noAttackRuns is every trace (TRC6 included) replayed by vanilla DNS with
// no attack, as in the paper's collected traces: Table 1 and Fig. 3.
func (s *Suite) noAttackRuns() []runSpec {
	specs := make([]runSpec, len(s.traces))
	for i := range specs {
		specs[i] = spec(i, 0)
	}
	return specs
}

// table1 reproduces Table 1: per-trace statistics; Requests Out comes from
// the replay.
func table1(s *Suite) plan {
	return plan{
		Table: Table{
			ID:      "table1",
			Title:   "DNS trace statistics (synthetic stand-ins for the university traces)",
			Columns: []string{"Trace", "Duration", "Clients", "Requests In", "Requests Out", "Names", "Zones"},
		},
		specs: s.noAttackRuns(),
		claims: []claim{note("requests out < requests in (caching absorbs most queries)",
			each(func(r []*outcome) bool { return r[0].MessagesOut() < r[0].SRQueriesTotal }))},
		fill: func(t *Table, res []*outcome) {
			for i, tr := range s.traces {
				st := workload.ComputeStats(tr)
				t.Rows = append(t.Rows, []string{
					st.Label,
					fmt.Sprintf("%d days", int(st.Duration.Hours()/24)),
					fmt.Sprintf("%d", st.Clients),
					fmt.Sprintf("%d", st.RequestsIn),
					messages(res[i]),
					fmt.Sprintf("%d", st.Names),
					fmt.Sprintf("%d", st.Zones),
				})
			}
		},
	}
}

// fig3 reproduces Figure 3: the CDF of the gap between a zone IRR's expiry
// and the next query needing it, absolute and as a fraction of the TTL.
func fig3(s *Suite) plan {
	return plan{
		Table: Table{
			ID:      "fig3",
			Title:   "Time-gap duration between IRR expiry and next query (CDF)",
			Columns: []string{"Metric", "x", "P(gap <= x)"},
		},
		specs: s.noAttackRuns(),
		claims: []claim{
			note("almost all gaps are under 5 days in absolute time", func(rows [][]*outcome) (string, bool) {
				abs, _ := gapCDFs(slices.Concat(rows...))
				return "P(gap <= 5d) " + pct(abs.At(5*86400)), abs.At(5*86400) >= 0.9
			}),
			note("relative gaps vary far more because IRR TTLs span minutes to days", func(rows [][]*outcome) (string, bool) {
				abs, frac := gapCDFs(slices.Concat(rows...))
				beyond := 1 - frac.At(10)
				return fmt.Sprintf("P(gap > 10 TTLs) %s vs P(gap > 5d) %s", pct(beyond), pct(1-abs.At(5*86400))), beyond >= 0.1
			}),
		},
		fill: func(t *Table, res []*outcome) {
			abs, frac := gapCDFs(res)
			for _, days := range []float64{0.25, 0.5, 1, 2, 3, 4, 5, 7} {
				t.Rows = append(t.Rows, []string{"gap (days)", fmt.Sprintf("%.2f", days), pct(abs.At(days * 86400))})
			}
			for _, f := range []float64{0.1, 0.5, 1, 2, 5, 10, 20, 50} {
				t.Rows = append(t.Rows, []string{"gap / TTL", fmt.Sprintf("%.1f", f), pct(frac.At(f))})
			}
		},
	}
}

// gapCDFs pools the runs' IRR expiry-to-next-query gaps: absolute, in
// seconds, and as a fraction of the TTL.
func gapCDFs(res []*outcome) (abs, frac metrics.CDF) {
	for _, r := range res {
		for _, v := range r.GapAbs.Samples() {
			abs.Add(v)
		}
		for _, v := range r.GapFrac.Samples() {
			frac.Add(v)
		}
	}
	return abs, frac
}

// failureCols runs sc for every attack duration: the SR-level columns,
// then the CS-level ones.
func failureCols(sc sim.Scheme) []column {
	var cols []column
	for _, level := range []column{{header: "SR", cell: srFail}, {header: "CS", cell: csFail}} {
		for _, dur := range attackDurations {
			cols = append(cols, column{
				fmt.Sprintf("%s %dh", level.header, int(dur.Hours())),
				func(sp *runSpec) { sp.scheme, sp.attack = sc, dur },
				level.cell,
			})
		}
	}
	return cols
}

// fig4 reproduces Figure 4: vanilla DNS under the root+TLD blackout.
func fig4(s *Suite) plan {
	return grid("fig4", "Vanilla DNS: failed queries during root+TLD attack", "Trace",
		s.weekRows(0), failureCols(sim.Vanilla()),
		note("failure rate grows with attack duration",
			each(func(r []*outcome) bool { return rising(sr(r[0]), sr(r[1]), sr(r[2]), sr(r[3])) })),
		note("CS-level failure rate exceeds SR-level (caches shield stub resolvers)",
			each(func(r []*outcome) bool {
				return !slices.ContainsFunc(r, func(o *outcome) bool { return cs(o) <= sr(o) })
			})),
		unprinted("SR-level failure varies across traces more than CS-level", func(rows [][]*outcome) (string, bool) {
			for d, dur := range attackDurations {
				srLo, srHi := extremes(rows, func(r []*outcome) float64 { return sr(r[d]) })
				csLo, csHi := extremes(rows, func(r []*outcome) float64 { return cs(r[d]) })
				if srHi-srLo <= csHi-csLo {
					return fmt.Sprintf("%v spread SR %.2f pt vs CS %.2f pt", dur, 100*(srHi-srLo), 100*(csHi-csLo)), false
				}
			}
			return "every duration", true
		}))
}

// fig5 reproduces Figure 5: the TTL-refresh scheme. Fig. 4's vanilla
// runs ride along unprinted, for the claim.
func fig5(s *Suite) plan {
	n := len(attackDurations)
	cols := failureCols(sim.Refresh())
	for _, c := range failureCols(sim.Vanilla())[:n] {
		cols = append(cols, column{vary: c.vary})
	}
	return grid("fig5", "TTL Refresh: failed queries during root+TLD attack", "Trace",
		s.weekRows(0), cols,
		note("at least ~50% lower failure rates than vanilla in most settings", func(rows [][]*outcome) (string, bool) {
			lower, halved := 0, 0
			for _, r := range rows {
				for d, dns := range r[2*n:] {
					for _, rate := range []func(*outcome) float64{sr, cs} {
						if rate(r[d]) < rate(dns) {
							lower++
						}
					}
					if sr(r[d]) <= sr(dns)/2 {
						halved++
					}
				}
			}
			settings := n * len(rows)
			return fmt.Sprintf("lower in %d/%d cells, SR halved in %d/%d", lower, 2*settings, halved, settings),
				4*lower >= 3*2*settings && 2*halved > settings
		}))
}

// sixHours is the attack most figures fix.
const sixHours = 6 * time.Hour

// renewalFigure runs refresh+renewal for the three credit values against
// the vanilla baseline at the 6-hour attack, as Figures 6–9 do; hidden
// columns and extra claims follow.
func renewalFigure(s *Suite, id, title string, mk func(c float64) core.RenewalPolicy, hidden []column, claims ...claim) plan {
	cols := srcs("DNS", nil)
	for _, c := range renewalCredits {
		cols = append(cols, srcs(fmt.Sprintf("c=%g", c), scheme(sim.RefreshRenew(mk(c))))...)
	}
	return grid(id, title, "Trace", s.weekRows(sixHours), append(cols, hidden...), append([]claim{
		note("higher credit → lower failure rate; order-of-magnitude better than DNS",
			each(func(r []*outcome) bool {
				return sr(r[2]) >= sr(r[4]) && sr(r[4]) >= sr(r[6]) && sr(r[6]) <= sr(r[0])/10
			}))},
		claims...)...)
}

// fig6 reproduces Figure 6: TTL refresh + LRU renewal.
func fig6(s *Suite) plan {
	return renewalFigure(s, "fig6", "TTL Refresh + Renew (LRU), 6h attack",
		func(c float64) core.RenewalPolicy { return core.LRU{C: c} }, nil)
}

// fig7 reproduces Figure 7: TTL refresh + LFU renewal.
func fig7(s *Suite) plan {
	return renewalFigure(s, "fig7", "TTL Refresh + Renew (LFU), 6h attack",
		func(c float64) core.RenewalPolicy { return core.LFU{C: c, Max: core.DefaultLFUMax(c)} }, nil)
}

// fig8 reproduces Figure 8: TTL refresh + adaptive LRU renewal.
func fig8(s *Suite) plan {
	return renewalFigure(s, "fig8", "TTL Refresh + Renew (A-LRU), 6h attack",
		func(c float64) core.RenewalPolicy { return core.ALRU{C: c} }, nil)
}

// fig9 reproduces Figure 9: TTL refresh + adaptive LFU renewal. Figs. 6–8's
// c=5 runs ride along unprinted, for the policy-order claim.
func fig9(s *Suite) plan {
	var hidden []column
	for _, p := range credit5[:3] {
		hidden = append(hidden, column{vary: scheme(sim.RefreshRenew(p))})
	}
	return renewalFigure(s, "fig9", "TTL Refresh + Renew (A-LFU), 6h attack",
		func(c float64) core.RenewalPolicy { return core.ALFU{C: c, MaxDays: core.DefaultLFUMax(c)} }, hidden,
		unprinted("at c=5 the policies order LRU ≤ LFU ≤ A-LRU ≤ A-LFU",
			each(func(r []*outcome) bool { return sr(r[8]) >= sr(r[9]) && sr(r[9]) >= sr(r[10]) && sr(r[10]) >= sr(r[6]) })))
}

// alfu5 is the renewal policy the combined scheme and the extensions use.
var alfu5 = core.ALFU{C: 5, MaxDays: core.DefaultLFUMax(5)}

// credit5 is the four renewal policies at credit 5, in the paper's order.
var credit5 = []core.RenewalPolicy{core.LRU{C: 5}, core.LFU{C: 5, Max: core.DefaultLFUMax(5)}, core.ALRU{C: 5}, alfu5}

// longTTLFigure runs sc over the long-TTL topologies, 6-hour attack,
// against vanilla DNS on the base tree; the SR column of TTL i is 2+2i.
func longTTLFigure(s *Suite, id, title string, sc sim.Scheme, hidden []column, claims ...claim) plan {
	cols := srcs("DNS", nil)
	for _, ttl := range longTTLValues {
		cols = append(cols, srcs(fmt.Sprintf("%dd", int(ttl.Hours()/24)), func(sp *runSpec) {
			sp.tree.longTTL, sp.scheme = ttl, sc
		})...)
	}
	return grid(id, title, "Trace", s.weekRows(sixHours), append(cols, hidden...), claims...)
}

// fig10 reproduces Figure 10: TTL refresh + long-TTL (operators raise the
// IRR TTL to 1/3/5/7 days). Fig. 9's A-LFU(5) runs ride along unprinted.
func fig10(s *Suite) plan {
	return longTTLFigure(s, "fig10", "TTL Refresh + Long-TTL, 6h attack", sim.Refresh(),
		[]column{{vary: scheme(sim.RefreshRenew(alfu5))}},
		note("5-day TTL is nearly as good as 7-day (gap CDF < 5 days, Fig 3)",
			each(func(r []*outcome) bool { return math.Abs(sr(r[6])-sr(r[8])) <= near })),
		note("matches the best renewal policy's resilience",
			each(func(r []*outcome) bool { return sr(r[8]) <= min(sr(r[10])+near, sr(r[0])/2) })))
}

// fig11 reproduces Figure 11: refresh + A-LFU(5) renewal + long-TTL.
func fig11(s *Suite) plan {
	return longTTLFigure(s, "fig11", "TTL Refresh + Renew (A-LFU 5) + Long-TTL, 6h attack", sim.RefreshRenew(alfu5), nil,
		note("a 3-day TTL already reaches the maximum resilience",
			each(func(r []*outcome) bool {
				return sr(r[4]) <= min(sr(r[2]), sr(r[6]), sr(r[8]))+near
			})))
}
