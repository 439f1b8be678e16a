package experiments

import (
	"fmt"
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
			Notes:   []string{"requests out < requests in (caching absorbs most queries)"},
		},
		specs: s.noAttackRuns(),
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
			Notes: []string{
				"almost all gaps are under 5 days in absolute time",
				"relative gaps vary far more because IRR TTLs span minutes to days",
			},
		},
		specs: s.noAttackRuns(),
		fill: func(t *Table, res []*outcome) {
			var abs, frac metrics.CDF
			for _, r := range res {
				for _, v := range r.GapAbs.Samples() {
					abs.Add(v)
				}
				for _, v := range r.GapFrac.Samples() {
					frac.Add(v)
				}
			}
			for _, days := range []float64{0.25, 0.5, 1, 2, 3, 4, 5, 7} {
				t.Rows = append(t.Rows, []string{"gap (days)", fmt.Sprintf("%.2f", days), pct(abs.At(days * 86400))})
			}
			for _, f := range []float64{0.1, 0.5, 1, 2, 5, 10, 20, 50} {
				t.Rows = append(t.Rows, []string{"gap / TTL", fmt.Sprintf("%.1f", f), pct(frac.At(f))})
			}
		},
	}
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
		"failure rate grows with attack duration",
		"CS-level failure rate exceeds SR-level (caches shield stub resolvers)")
}

// fig5 reproduces Figure 5: the TTL-refresh scheme.
func fig5(s *Suite) plan {
	return grid("fig5", "TTL Refresh: failed queries during root+TLD attack", "Trace",
		s.weekRows(0), failureCols(sim.Refresh()),
		"at least ~50% lower failure rates than vanilla in most settings")
}

// sixHours is the attack most figures fix.
const sixHours = 6 * time.Hour

// renewalFigure runs refresh+renewal for the three credit values against
// the vanilla baseline at the 6-hour attack, as Figures 6–9 do.
func renewalFigure(s *Suite, id, title string, mk func(c float64) core.RenewalPolicy) plan {
	cols := srcs("DNS", nil)
	for _, c := range renewalCredits {
		cols = append(cols, srcs(fmt.Sprintf("c=%g", c), scheme(sim.RefreshRenew(mk(c))))...)
	}
	return grid(id, title, "Trace", s.weekRows(sixHours), cols,
		"higher credit → lower failure rate; order-of-magnitude better than DNS")
}

// fig6 reproduces Figure 6: TTL refresh + LRU renewal.
func fig6(s *Suite) plan {
	return renewalFigure(s, "fig6", "TTL Refresh + Renew (LRU), 6h attack",
		func(c float64) core.RenewalPolicy { return core.LRU{C: c} })
}

// fig7 reproduces Figure 7: TTL refresh + LFU renewal.
func fig7(s *Suite) plan {
	return renewalFigure(s, "fig7", "TTL Refresh + Renew (LFU), 6h attack",
		func(c float64) core.RenewalPolicy { return core.LFU{C: c, Max: core.DefaultLFUMax(c)} })
}

// fig8 reproduces Figure 8: TTL refresh + adaptive LRU renewal.
func fig8(s *Suite) plan {
	return renewalFigure(s, "fig8", "TTL Refresh + Renew (A-LRU), 6h attack",
		func(c float64) core.RenewalPolicy { return core.ALRU{C: c} })
}

// fig9 reproduces Figure 9: TTL refresh + adaptive LFU renewal.
func fig9(s *Suite) plan {
	return renewalFigure(s, "fig9", "TTL Refresh + Renew (A-LFU), 6h attack",
		func(c float64) core.RenewalPolicy { return core.ALFU{C: c, MaxDays: core.DefaultLFUMax(c)} })
}

// alfu5 is the renewal policy the combined scheme and the extensions use.
var alfu5 = core.ALFU{C: 5, MaxDays: core.DefaultLFUMax(5)}

// longTTLFigure runs sc over the long-TTL topologies, 6-hour attack,
// against vanilla DNS on the base tree.
func longTTLFigure(s *Suite, id, title string, sc sim.Scheme, notes ...string) plan {
	cols := srcs("DNS", nil)
	for _, ttl := range longTTLValues {
		cols = append(cols, srcs(fmt.Sprintf("%dd", int(ttl.Hours()/24)), func(sp *runSpec) {
			sp.tree.longTTL, sp.scheme = ttl, sc
		})...)
	}
	return grid(id, title, "Trace", s.weekRows(sixHours), cols, notes...)
}

// fig10 reproduces Figure 10: TTL refresh + long-TTL (operators raise the
// IRR TTL to 1/3/5/7 days).
func fig10(s *Suite) plan {
	return longTTLFigure(s, "fig10", "TTL Refresh + Long-TTL, 6h attack", sim.Refresh(),
		"5-day TTL is nearly as good as 7-day (gap CDF < 5 days, Fig 3)",
		"matches the best renewal policy's resilience")
}

// fig11 reproduces Figure 11: refresh + A-LFU(5) renewal + long-TTL.
func fig11(s *Suite) plan {
	return longTTLFigure(s, "fig11", "TTL Refresh + Renew (A-LFU 5) + Long-TTL, 6h attack", sim.RefreshRenew(alfu5),
		"a 3-day TTL already reaches the maximum resilience")
}
