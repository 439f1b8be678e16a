package workload

import (
	"strings"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/topology"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func testNames(t *testing.T) []topology.TargetName {
	t.Helper()
	tree, err := topology.Generate(topology.Params{
		Seed: 1, NumTLDs: 4, SLDsPerTLD: 25, SubZoneFrac: 0.2,
		MinNS: 2, MaxNS: 3, MaxHostNames: 8,
	})
	if err != nil {
		t.Fatalf("topology.Generate: %v", err)
	}
	return tree.QueryableNames()
}

func smallParams(label string, seed int64) GenParams {
	p := DefaultGenParams(label, seed, epoch)
	p.Clients = 50
	p.TotalQueries = 5000
	return p
}

func TestGenerateBasic(t *testing.T) {
	tr := Generate(smallParams("TRC1", 1), testNames(t))
	if len(tr.Queries) != 5000 {
		t.Fatalf("generated %d queries, want 5000", len(tr.Queries))
	}
	if tr.Label != "TRC1" || tr.Clients != 50 {
		t.Errorf("trace meta = %q/%d", tr.Label, tr.Clients)
	}
	for i := 1; i < len(tr.Queries); i++ {
		if tr.Queries[i].At.Before(tr.Queries[i-1].At) {
			t.Fatal("queries not time-ordered")
		}
	}
	last := tr.Queries[len(tr.Queries)-1].At
	if last.After(epoch.Add(tr.Duration)) {
		t.Errorf("query at %v beyond horizon", last)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	names := testNames(t)
	a := Generate(smallParams("T", 42), names)
	b := Generate(smallParams("T", 42), names)
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("lengths differ")
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatalf("query %d differs: %+v vs %+v", i, a.Queries[i], b.Queries[i])
		}
	}
}

func TestGeneratePopularitySkew(t *testing.T) {
	tr := Generate(smallParams("T", 7), testNames(t))
	counts := ZoneQueryCounts(tr)
	var max, total uint64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	// Zipf skew: the hottest zone must dominate well beyond uniform.
	uniform := total / uint64(len(counts))
	if max < 5*uniform {
		t.Errorf("hottest zone %d queries vs uniform %d: no skew?", max, uniform)
	}
}

func TestGenerateTemporalLocality(t *testing.T) {
	p := smallParams("T", 9)
	p.RepeatProb = 0.5
	tr := Generate(p, testNames(t))
	names := make(map[dnswire.Name]int)
	for _, q := range tr.Queries {
		names[q.Name]++
	}
	// With repeats, distinct names must be far fewer than queries.
	if len(names) > len(tr.Queries)/2 {
		t.Errorf("%d distinct names out of %d queries: no locality", len(names), len(tr.Queries))
	}
}

func TestGenerateNXQueries(t *testing.T) {
	p := smallParams("T", 11)
	p.NXFrac = 0.2
	tr := Generate(p, testNames(t))
	nx := 0
	for _, q := range tr.Queries {
		if strings.Contains(string(q.Name), "nx-") {
			nx++
		}
	}
	if nx == 0 {
		t.Error("no NX queries generated")
	}
	frac := float64(nx) / float64(len(tr.Queries))
	// Repeats recycle NX names too, so accept a broad range around 0.2.
	if frac < 0.05 || frac > 0.4 {
		t.Errorf("NX fraction = %.2f, want around 0.2", frac)
	}
}

func TestGenerateDiurnalShape(t *testing.T) {
	p := smallParams("T", 13)
	p.TotalQueries = 20000
	p.Diurnal = true
	tr := Generate(p, testNames(t))
	night, day := 0, 0
	for _, q := range tr.Queries {
		h := q.At.Sub(epoch) % (24 * time.Hour)
		if h < 5*time.Hour {
			night++
		}
		if h >= 10*time.Hour && h < 15*time.Hour {
			day++
		}
	}
	if day <= night {
		t.Errorf("day=%d night=%d: no diurnal pattern", day, night)
	}
}

func TestComputeStats(t *testing.T) {
	tr := Generate(smallParams("TRC9", 17), testNames(t))
	st := ComputeStats(tr)
	if st.RequestsIn != len(tr.Queries) {
		t.Errorf("RequestsIn = %d", st.RequestsIn)
	}
	if st.Clients != 50 {
		t.Errorf("Clients = %d, want 50", st.Clients)
	}
	if st.Names == 0 || st.Zones == 0 || st.Names < st.Zones {
		t.Errorf("Names=%d Zones=%d", st.Names, st.Zones)
	}
}

func TestGenerateEmptyInputs(t *testing.T) {
	tr := Generate(GenParams{Label: "X"}, nil)
	if len(tr.Queries) != 0 {
		t.Errorf("empty generation produced %d queries", len(tr.Queries))
	}
}
