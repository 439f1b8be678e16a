package experiments

import (
	"fmt"

	"resilientdns/internal/sim"
)

// partition sweeps the number of caching servers the client population is
// split across. The paper (§5.1) attributes the cross-trace variance of
// SR-level results partly to "the number of SRs that use the same CS";
// this experiment isolates that factor: fewer clients per cache → colder
// caches → more failures during the attack, for vanilla DNS and for the
// refresh scheme alike.
func partition(s *Suite) plan {
	var rows []row
	for _, sc := range []sim.Scheme{sim.Vanilla(), sim.Refresh()} {
		sp := spec(0, sixHours)
		sp.scheme = sc
		rows = append(rows, row{sc.Name, sp})
	}
	var cols []column
	for _, k := range []int{1, 2, 4, 8} {
		split := func(sp *runSpec) { sp.servers = k }
		cols = append(cols,
			column{fmt.Sprintf("%d CS SR", k), split, srFail},
			column{fmt.Sprintf("%d CS msgs", k), split, messages})
	}
	return grid("partition", "Client population split across k caching servers (TRC1, 6h attack)", "Scheme",
		rows, cols,
		note("splitting the client population dilutes each cache: upstream traffic grows with k", each(func(r []*outcome) bool {
			return rising(float64(r[1].MessagesOut()), float64(r[3].MessagesOut()), float64(r[5].MessagesOut()), float64(r[7].MessagesOut()))
		})),
		note("larger stub populations behind one cache amplify the resilience schemes (§5.1)", func(rows [][]*outcome) (string, bool) {
			gain := func(j int) float64 { return sr(rows[0][2*j]) - sr(rows[1][2*j]) }
			return fmt.Sprintf("refresh's SR gain over DNS %.2f pt at k=1, %.2f pt at k=8", 100*gain(0), 100*gain(3)), rising(gain(3), gain(2), gain(1), gain(0))
		}))
}
