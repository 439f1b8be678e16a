package experiments

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"resilientdns/internal/sim"
)

// testConfig is smaller than QuickConfig so the whole test file runs in a
// few seconds.
func testConfig() Config {
	c := QuickConfig()
	c.NumTLDs = 5
	c.SLDsPerTLD = 15
	c.TraceClients = 50
	c.TraceQueries = 5000
	c.MonthQueries = 12000
	return c
}

// suite is shared across tests; memoisation makes later tests cheap.
var sharedSuite *Suite

func getSuite(t *testing.T) *Suite {
	t.Helper()
	if sharedSuite == nil {
		s, err := NewSuite(testConfig())
		if err != nil {
			t.Fatalf("NewSuite: %v", err)
		}
		sharedSuite = s
	}
	return sharedSuite
}

// table asks the shared suite for one table the way dnssim does.
func table(t *testing.T, id string) *Table {
	t.Helper()
	var tbl *Table
	if _, err := getSuite(t).Run([]string{id}, func(got *Table) { tbl = got }); err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	return tbl
}

// TestFrozenExperimentSequence pins what `dnssim -exp all` runs: the
// nineteen experiments of results_full.txt, in its order. The table may
// grow unfrozen rows (restart and mesh are the two so far); a change to
// this sequence is a change to the frozen file.
func TestFrozenExperimentSequence(t *testing.T) {
	want := []string{
		"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "table2", "fig12",
		"ablation-childirr", "ablation-refresh", "ablation-negcache", "maxdamage",
		"dnssec", "partition", "servestale",
	}
	var frozen, byIDOnly []string
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("experiment id %q appears twice", e.ID)
		}
		seen[e.ID] = true
		if e.Frozen {
			frozen = append(frozen, e.ID)
		} else {
			byIDOnly = append(byIDOnly, e.ID)
		}
	}
	if !reflect.DeepEqual(frozen, want) {
		t.Errorf("frozen experiments = %v, want %v", frozen, want)
	}
	if !reflect.DeepEqual(byIDOnly, []string{"restart", "mesh"}) {
		t.Errorf("experiments outside -exp all = %v, want [restart mesh]", byIDOnly)
	}
	_, err := getSuite(t).Run([]string{"fig4", "restrat"}, func(*Table) { t.Error("a table was rendered before the unknown id was reported") })
	if !errors.Is(err, ErrUnknownID) || !strings.Contains(err.Error(), "servestale, restart, mesh") {
		t.Errorf("unknown-id error does not name every experiment: %v", err)
	}
}

func TestRestartExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("restart experiment replays three full traces")
	}
	claimsHold(t, "restart")
	// Not a note, the mechanism: the warm restart replayed the persisted cache.
	warm := spec(0, 24*time.Hour)
	warm.scheme, warm.crash = sim.RefreshRenew(alfu5), warmRestart
	if getSuite(t).memo[warm].out.replayed == 0 {
		t.Error("warm restart replayed no entries")
	}
}

func TestMeshExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh experiment replays three fleet variants")
	}
	claimsHold(t, "mesh")
	// Not a note, the mechanism: ownership dedup deferred renewals.
	meshed := spec(0, 24*time.Hour)
	meshed.scheme, meshed.servers, meshed.mesh = sim.RefreshRenew(alfu5), 3, true
	if getSuite(t).memo[meshed].out.ServerStats.RenewalDeferred == 0 {
		t.Error("mesh fleet deferred no renewals: ownership dedup never engaged")
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := getSuite(t).Run([]string{"fig99"}, func(*Table) {}); err == nil {
		t.Error("Run(fig99) succeeded")
	}
}

// claimsHold renders the experiment at testConfig scale and requires each
// of its claims to hold, or to fail exactly as the deviation list records.
func claimsHold(t *testing.T, id string) *Table {
	t.Helper()
	var tbl *Table
	st, err := getSuite(t).Run([]string{id}, func(got *Table) { tbl = got })
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	verdictsHold(t, st)
	return tbl
}

// verdictsHold fails on every claim that neither holds nor deviates as
// the deviation list records.
func verdictsHold(t *testing.T, st RunStats) {
	t.Helper()
	for _, v := range st.Verdicts {
		if !v.Holds && !v.Known {
			t.Errorf("claim %s fails: %s [%s]", v.ID, v.Claim, v.Measured)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tbl := claimsHold(t, "table1")
	if len(tbl.Rows) != 6 || tbl.Rows[5][0] != "TRC6" || tbl.Rows[5][1] != "30 days" || tbl.Columns[3] != "Requests In" {
		t.Errorf("Table 1 = %v %v, want Requests In for TRC1-TRC6, TRC6 over 30 days", tbl.Columns, tbl.Rows)
	}
}

func TestFig3GapMostlyUnderFiveDays(t *testing.T)   { claimsHold(t, "fig3") }
func TestFig4FailureGrowsWithDuration(t *testing.T) { claimsHold(t, "fig4") }
func TestFig5RefreshBeatsVanilla(t *testing.T)      { claimsHold(t, "fig5") }
func TestFig9OrderOfMagnitude(t *testing.T)         { claimsHold(t, "fig9") }
func TestFig10LongTTLSaturates(t *testing.T)        { claimsHold(t, "fig10") }
func TestTable2Shapes(t *testing.T)                 { claimsHold(t, "table2") }
func TestFig12OccupancyMultiplier(t *testing.T)     { claimsHold(t, "fig12") }
func TestAblationChildIRR(t *testing.T)             { claimsHold(t, "ablation-childirr") }
func TestDNSSECExperimentShape(t *testing.T)        { claimsHold(t, "dnssec") }
func TestPartitionExperimentShape(t *testing.T)     { claimsHold(t, "partition") }

func TestMemoisationReturnsSameResults(t *testing.T) {
	s := getSuite(t)
	table(t, "fig4")
	first := s.memo[spec(0, 6*time.Hour)]
	if first == nil {
		t.Fatal("fig4 left no memo entry for vanilla DNS, TRC1, 6h attack")
	}
	st, err := s.Run([]string{"fig4"}, func(*Table) {})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 0 || st.MemoHits != 40 {
		t.Errorf("second fig4: %d runs, %d memo hits, want 0 and 40 (5 traces x 8 columns)", st.Runs, st.MemoHits)
	}
	if s.memo[spec(0, 6*time.Hour)] != first {
		t.Error("memoisation did not keep the first run's result")
	}
}

// TestDistinctSchemesDoNotShareMemo: the memo key is the whole spec, so two
// schemes that share a Name but differ in a field are two runs. (Keyed on
// the name alone, the second column would print the first one's result.)
func TestDistinctSchemesDoNotShareMemo(t *testing.T) {
	s := getSuite(t)
	p := grid("aliasing", "same name, different scheme", "Trace",
		[]row{{"TRC1", spec(0, 0)}},
		[]column{
			{"off", scheme(sim.Scheme{Name: "X"}), messages},
			{"on", scheme(sim.Scheme{Name: "X", NegativeTTL: time.Hour}), messages},
		})
	var tbl *Table
	if _, err := s.render([]plan{p}, func(got *Table) { tbl = got }); err != nil {
		t.Fatal(err)
	}
	if off, on := tbl.Rows[0][1], tbl.Rows[0][2]; off == on {
		t.Errorf("negative caching off and on both sent %s messages: one memoised result served both", off)
	}
}

// allIDs is every experiment, frozen or not, in table order.
func allIDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// TestTablesMatchGolden compares all 21 tables at testConfig scale with
// testdata/results_testscale.txt, captured at commit a4aa0ae (the parent of
// the planner): drift shows here in seconds, not only in `make sim-check`.
// To regenerate, write this test's output to the file and say why in
// CHANGES.md.
func TestTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every table, restart and mesh included")
	}
	want, err := os.ReadFile("testdata/results_testscale.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	st, err := getSuite(t).Run(allIDs(), func(tbl *Table) { tbl.Fprint(&got) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tables differ from testdata/results_testscale.txt:\n%s", firstDiff(got.String(), string(want)))
	}
	verdictsHold(t, st)
}

// firstDiff names the first line on which two renderings disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + "\n got: " + g[i] + "\nwant: " + w[i]
		}
	}
	return "one is a prefix of the other: " + strconv.Itoa(len(g)) + " vs " + strconv.Itoa(len(w)) + " lines"
}

// TestPlannerOrderIndependent renders the same tables on one worker and on
// four and requires equal bytes. Under -race it is also what shows that
// the trees, traces and zones the concurrent runs share are only read.
// The ids cover every tree variant, a sampled run, a partitioned one, a
// crash and a mesh; the traces are short because equality, not shape, is
// the point.
func TestPlannerOrderIndependent(t *testing.T) {
	ids := []string{"fig4", "fig10", "table2", "dnssec", "partition", "restart", "mesh"}
	cfg := testConfig()
	cfg.TraceQueries, cfg.MonthQueries = 1000, 1000
	render := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, err := NewSuite(cfg)
		if err != nil {
			t.Fatalf("NewSuite: %v", err)
		}
		var out bytes.Buffer
		st, err := s.Run(ids, func(tbl *Table) { tbl.Fprint(&out) })
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers != procs {
			t.Errorf("GOMAXPROCS(%d): %d workers", procs, st.Workers)
		}
		return out.String()
	}
	if one, four := render(1), render(4); one != four {
		t.Errorf("output depends on the worker count:\n%s", firstDiff(four, one))
	}
}
