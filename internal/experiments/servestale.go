package experiments

import (
	"fmt"
	"time"

	"resilientdns/internal/sim"
)

// serveStaleBaseline compares the paper's schemes against the related
// resilience mechanisms that later shipped in production resolvers: the
// Ballani & Francis retain-expired-records proposal the paper discusses
// in §7 (later RFC 8767 serve-stale), and unbound-style prefetch (early
// refresh of hot answers). The paper argues its IRR-focused approach
// keeps DNS semantics intact while achieving similar resilience; this
// experiment quantifies all sides under the 6-hour root+TLD blackout.
func serveStaleBaseline(s *Suite) plan {
	var cols []column
	for _, sc := range []sim.Scheme{
		sim.Vanilla(),
		{Name: "ServeStale(7d)", ServeStale: 7 * 24 * time.Hour},
		{Name: "Prefetch", Prefetch: true},
		sim.Refresh(),
		sim.RefreshRenew(alfu5),
	} {
		cell := srFail
		if sc.ServeStale > 0 {
			cell = func(o *outcome) string {
				return fmt.Sprintf("%s (%d stale)", srFail(o), o.ServerStats.StaleAnswers)
			}
		}
		cols = append(cols, column{sc.Name + " SR", scheme(sc), cell})
	}
	return grid("servestale", "Paper's schemes vs the serve-stale baseline (§7), 6h root+TLD attack", "Trace",
		s.weekRows(sixHours), cols,
		"serve-stale rescues previously seen names but violates TTL semantics (§7)",
		"prefetch keeps hot data records alive but does nothing for cold zones' IRRs",
		"the IRR schemes reach comparable resilience within DNS semantics")
}
