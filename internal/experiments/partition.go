package experiments

import (
	"fmt"
	"time"

	"resilientdns/internal/sim"
)

// partitionCounts are the cache-sharing factors swept by the partition
// experiment.
var partitionCounts = []int{1, 2, 4, 8}

// Partition sweeps the number of caching servers the client population is
// split across. The paper (§5.1) attributes the cross-trace variance of
// SR-level results partly to "the number of SRs that use the same CS";
// this experiment isolates that factor: fewer clients per cache → colder
// caches → more failures during the attack, for vanilla DNS and for the
// refresh scheme alike.
func (s *Suite) Partition() (*Table, error) {
	const dur = 6 * time.Hour
	cols := []string{"Scheme"}
	for _, k := range partitionCounts {
		cols = append(cols, fmt.Sprintf("%d CS SR", k), fmt.Sprintf("%d CS msgs", k))
	}
	t := &Table{
		ID:      "partition",
		Title:   "Client population split across k caching servers (TRC1, 6h attack)",
		Columns: cols,
	}
	tr := s.traces[0]
	for _, scheme := range []sim.Scheme{sim.Vanilla(), sim.Refresh()} {
		row := []string{scheme.Name}
		for _, k := range partitionCounts {
			res, err := sim.RunPartitioned(s.scenario(s.baseTree, tr, scheme, dur), k)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(res.SRFailRate()), fmt.Sprintf("%d", res.MessagesOut()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"splitting the client population dilutes each cache: upstream traffic grows with k",
		"larger stub populations behind one cache amplify the resilience schemes (§5.1)")
	return t, nil
}
