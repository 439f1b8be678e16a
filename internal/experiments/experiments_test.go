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
	tbl := table(t, "restart")
	if len(tbl.Rows) != 3 {
		t.Fatalf("restart rows = %d, want 3", len(tbl.Rows))
	}
	coldDefended := parsePct(t, tbl.Rows[1][2]) // post-restart, defended cold
	warm := parsePct(t, tbl.Rows[2][2])         // post-restart, defended warm
	if warm >= coldDefended {
		t.Errorf("warm restart (%.3f) not better than cold restart (%.3f)", warm, coldDefended)
	}
	if warm > 0.10 {
		t.Errorf("warm restart failure rate %.3f, want near the defended baseline", warm)
	}
	var replayed float64
	if _, err := sscanFloat(tbl.Rows[2][3], &replayed); err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Error("warm restart replayed no entries")
	}
}

func TestMeshExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh experiment replays three fleet variants")
	}
	tbl := table(t, "mesh")
	if len(tbl.Rows) != 3 {
		t.Fatalf("mesh rows = %d, want 3", len(tbl.Rows))
	}
	soloFail := parsePct(t, tbl.Rows[0][1])
	noMeshFail := parsePct(t, tbl.Rows[1][1])
	meshFail := parsePct(t, tbl.Rows[2][1])
	var noMeshRenewals, meshRenewals, meshDeferred float64
	if _, err := sscanFloat(tbl.Rows[1][2], &noMeshRenewals); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanFloat(tbl.Rows[2][2], &meshRenewals); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanFloat(tbl.Rows[2][3], &meshDeferred); err != nil {
		t.Fatal(err)
	}
	// The fleet claims under test: ownership dedup collapses aggregate
	// renewal traffic at least 2x below the independent fleet, and gossip
	// keeps the mesh fleet's failure rate at or below both baselines.
	if meshRenewals*2 > noMeshRenewals {
		t.Errorf("mesh renewals %v not >=2x below no-mesh %v", meshRenewals, noMeshRenewals)
	}
	if meshFail > noMeshFail {
		t.Errorf("mesh fail %.3f%% worse than no-mesh fleet %.3f%%", meshFail, noMeshFail)
	}
	if meshFail > soloFail {
		t.Errorf("mesh fail %.3f%% worse than solo instance %.3f%%", meshFail, soloFail)
	}
	if meshDeferred == 0 {
		t.Error("mesh fleet deferred no renewals: ownership dedup never engaged")
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := getSuite(t).Run([]string{"fig99"}, func(*Table) {}); err == nil {
		t.Error("Run(fig99) succeeded")
	}
}

func TestTable1Shape(t *testing.T) {
	tbl := table(t, "table1")
	if len(tbl.Rows) != 6 {
		t.Fatalf("Table1 rows = %d, want 6 (TRC1-TRC6)", len(tbl.Rows))
	}
	if tbl.Rows[5][0] != "TRC6" || tbl.Rows[5][1] != "30 days" {
		t.Errorf("TRC6 row = %v", tbl.Rows[5])
	}
	out := tbl.String()
	if !strings.Contains(out, "Requests In") {
		t.Errorf("rendered table missing header: %q", out)
	}
}

func TestFig3GapMostlyUnderFiveDays(t *testing.T) {
	tbl := table(t, "fig3")
	// Find the "gap (days) 5.00" row: the paper's headline observation is
	// that almost all gaps are under five days.
	for _, row := range tbl.Rows {
		if row[0] == "gap (days)" && row[1] == "5.00" {
			val := strings.TrimSuffix(row[2], "%")
			if !strings.HasPrefix(val, "9") {
				t.Errorf("P(gap <= 5d) = %s%%, want > 90%%", val)
			}
			return
		}
	}
	t.Fatal("5-day row not found")
}

// parsePct converts a "12.34%" cell back to a fraction.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent cell %q: %v", cell, err)
	}
	return v / 100
}

// sscanFloat parses a numeric cell that may carry a trailing "%".
func sscanFloat(cell string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(cell), "%"), 64)
	*v = f
	return 1, err
}

func TestFig4FailureGrowsWithDuration(t *testing.T) {
	tbl := table(t, "fig4")
	if len(tbl.Rows) != 5 {
		t.Fatalf("Fig4 rows = %d, want 5", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		sr3 := parsePct(t, row[1])
		sr24 := parsePct(t, row[4])
		if sr24 <= sr3 {
			t.Errorf("%s: SR failures did not grow with duration (%v -> %v)", row[0], sr3, sr24)
		}
		cs6 := parsePct(t, row[6])
		sr6 := parsePct(t, row[2])
		if cs6 <= sr6 {
			t.Errorf("%s: CS rate %v not above SR rate %v", row[0], cs6, sr6)
		}
	}
}

func TestFig5RefreshBeatsVanilla(t *testing.T) {
	fig4 := table(t, "fig4")
	fig5 := table(t, "fig5")
	better := 0
	for i := range fig4.Rows {
		for col := 1; col <= 8; col++ {
			v4 := parsePct(t, fig4.Rows[i][col])
			v5 := parsePct(t, fig5.Rows[i][col])
			if v5 < v4 {
				better++
			}
		}
	}
	// Refresh must win in the vast majority of (trace, duration) cells.
	if better < 30 {
		t.Errorf("refresh better in only %d/40 cells", better)
	}
}

func TestFig9OrderOfMagnitude(t *testing.T) {
	tbl := table(t, "fig9")
	for _, row := range tbl.Rows {
		dns := parsePct(t, row[1])
		alfu5 := parsePct(t, row[7]) // c=5 SR
		if alfu5 > dns/3 {
			t.Errorf("%s: A-LFU(5) SR %.4f not well below DNS %.4f", row[0], alfu5, dns)
		}
	}
}

func TestFig10LongTTLSaturates(t *testing.T) {
	tbl := table(t, "fig10")
	for _, row := range tbl.Rows {
		d5 := parsePct(t, row[7]) // 5d SR
		d7 := parsePct(t, row[9]) // 7d SR
		if d7 > d5+0.02 {
			t.Errorf("%s: 7d (%v) much worse than 5d (%v)?", row[0], d7, d5)
		}
		dns := parsePct(t, row[1])
		if d7 > dns/2 {
			t.Errorf("%s: long-TTL 7d (%v) not well below DNS (%v)", row[0], d7, dns)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	tbl := table(t, "table2")
	cells := map[string][]string{}
	for _, row := range tbl.Rows {
		cells[row[0]] = row
	}
	// Refresh reduces messages.
	if !strings.HasPrefix(cells["Refresh"][1], "-") {
		t.Errorf("Refresh ΔMessages = %s, want negative", cells["Refresh"][1])
	}
	// Long-TTL reduces messages.
	if !strings.HasPrefix(cells["Long-TTL(7d)+Refresh"][1], "-") {
		t.Errorf("Long-TTL ΔMessages = %s, want negative", cells["Long-TTL(7d)+Refresh"][1])
	}
	// Combination reduces messages.
	if !strings.HasPrefix(cells["Combination(3d+A-LFU5)"][1], "-") {
		t.Errorf("Combination ΔMessages = %s, want negative", cells["Combination(3d+A-LFU5)"][1])
	}
	// Adaptive policies cost more than non-adaptive.
	var lru, alru float64
	if _, err := sscanFloat(strings.TrimPrefix(cells["Refresh+LRU(5)"][1], "+"), &lru); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanFloat(strings.TrimPrefix(cells["Refresh+A-LRU(5)"][1], "+"), &alru); err != nil {
		t.Fatal(err)
	}
	if alru <= lru {
		t.Errorf("A-LRU overhead %v not above LRU %v", alru, lru)
	}
}

func TestFig12OccupancyMultiplier(t *testing.T) {
	tbl := table(t, "fig12")
	var dnsZones, alfuZones float64
	for _, row := range tbl.Rows {
		switch row[0] {
		case "DNS":
			if _, err := sscanFloat(row[1], &dnsZones); err != nil {
				t.Fatal(err)
			}
		case "Refresh+A-LFU(5)":
			if _, err := sscanFloat(row[1], &alfuZones); err != nil {
				t.Fatal(err)
			}
		}
	}
	if dnsZones == 0 || alfuZones == 0 {
		t.Fatalf("rows missing: %v", tbl.Rows)
	}
	mult := alfuZones / dnsZones
	if mult < 1.2 || mult > 5 {
		t.Errorf("occupancy multiplier = %.2f, want ~2-3x", mult)
	}
}

func TestAblationChildIRR(t *testing.T) {
	tbl := table(t, "ablation-childirr")
	worse := 0
	for _, row := range tbl.Rows {
		with := parsePct(t, row[1])
		without := parsePct(t, row[2])
		if without > with {
			worse++
		}
	}
	if worse < 4 {
		t.Errorf("disabling child IRRs hurt only %d/5 traces", worse)
	}
}

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
	if _, err := getSuite(t).Run(allIDs(), func(tbl *Table) { tbl.Fprint(&got) }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("tables differ from testdata/results_testscale.txt:\n%s", firstDiff(got.String(), string(want)))
	}
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

func TestDNSSECExperimentShape(t *testing.T) {
	tbl := table(t, "dnssec")
	for _, row := range tbl.Rows {
		signedDNS := parsePct(t, row[2])
		signedALFU := parsePct(t, row[4])
		if signedALFU > signedDNS/2 {
			t.Errorf("%s: signed A-LFU %.3f not well below signed DNS %.3f",
				row[0], signedALFU, signedDNS)
		}
	}
}

func TestPartitionExperimentShape(t *testing.T) {
	tbl := table(t, "partition")
	for _, row := range tbl.Rows {
		var m1, m8 float64
		if _, err := sscanFloat(row[2], &m1); err != nil {
			t.Fatal(err)
		}
		if _, err := sscanFloat(row[8], &m8); err != nil {
			t.Fatal(err)
		}
		if m8 <= m1 {
			t.Errorf("%s: 8-way split sent %v messages vs %v shared", row[0], m8, m1)
		}
	}
}
