package sim

import (
	"reflect"
	"testing"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/core"
	"resilientdns/internal/metrics"
	"resilientdns/internal/topology"
	"resilientdns/internal/workload"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// testScenario builds a small but realistic scenario: ~500 zones, 8000
// queries over 7 days, attack on day 7.
func testScenario(t *testing.T, scheme Scheme, attackDur time.Duration) Scenario {
	t.Helper()
	p := topology.DefaultParams(1)
	p.NumTLDs = 6
	p.SLDsPerTLD = 60
	tree, err := topology.Generate(p)
	if err != nil {
		t.Fatalf("topology.Generate: %v", err)
	}
	gp := workload.DefaultGenParams("TEST", 2, epoch)
	gp.Clients = 100
	gp.TotalQueries = 8000
	tr := workload.Generate(gp, tree.QueryableNames())

	var sched attack.Schedule
	if attackDur > 0 {
		sched = attack.RootAndTLDs(epoch.Add(6*24*time.Hour), attackDur, tree.AllZoneNames())
	}
	return Scenario{Tree: tree, Trace: tr, Attack: sched, Scheme: scheme, Seed: 3}
}

func TestRunVanillaNoAttack(t *testing.T) {
	res, err := Run(testScenario(t, Vanilla(), 0))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SRQueriesTotal != 8000 {
		t.Errorf("SRQueriesTotal = %d, want 8000", res.SRQueriesTotal)
	}
	if res.SRFailedTotal != 0 {
		t.Errorf("failures with no attack: %d", res.SRFailedTotal)
	}
	if res.CSQueriesTotal == 0 {
		t.Error("no outgoing queries recorded")
	}
	if res.SRQueriesAttack != 0 {
		t.Errorf("attack counters nonzero without attack: %d", res.SRQueriesAttack)
	}
}

func TestRunVanillaAttackCausesFailures(t *testing.T) {
	res, err := Run(testScenario(t, Vanilla(), 24*time.Hour))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.SRQueriesAttack == 0 {
		t.Fatal("no queries during attack window")
	}
	if res.SRFailedAttack == 0 {
		t.Error("vanilla DNS had no failures during a 24h root+TLD blackout")
	}
	if res.CSFailedAttack == 0 {
		t.Error("no failed CS queries during attack")
	}
	// CS-level failure rate exceeds SR-level (paper: cached answers
	// shield stub resolvers, every CS query hits the infrastructure).
	if res.CSFailRate() <= res.SRFailRate() {
		t.Errorf("CS fail rate %.3f not above SR fail rate %.3f",
			res.CSFailRate(), res.SRFailRate())
	}
}

func TestRefreshBeatsVanilla(t *testing.T) {
	vanilla, err := Run(testScenario(t, Vanilla(), 24*time.Hour))
	if err != nil {
		t.Fatalf("Run vanilla: %v", err)
	}
	refresh, err := Run(testScenario(t, Refresh(), 24*time.Hour))
	if err != nil {
		t.Fatalf("Run refresh: %v", err)
	}
	if refresh.SRFailRate() >= vanilla.SRFailRate() {
		t.Errorf("refresh SR fail rate %.4f not below vanilla %.4f",
			refresh.SRFailRate(), vanilla.SRFailRate())
	}
}

func TestRenewalBeatsRefresh(t *testing.T) {
	refresh, err := Run(testScenario(t, Refresh(), 24*time.Hour))
	if err != nil {
		t.Fatalf("Run refresh: %v", err)
	}
	renew, err := Run(testScenario(t, RefreshRenew(core.ALFU{C: 5, MaxDays: 50}), 24*time.Hour))
	if err != nil {
		t.Fatalf("Run renew: %v", err)
	}
	if renew.SRFailRate() > refresh.SRFailRate() {
		t.Errorf("renewal SR fail rate %.4f above refresh-only %.4f",
			renew.SRFailRate(), refresh.SRFailRate())
	}
	if renew.ServerStats.Renewals == 0 {
		t.Error("renewal scheme performed no renewals")
	}
}

func TestGapCDFCollected(t *testing.T) {
	res, err := Run(testScenario(t, Vanilla(), 0))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.GapAbs.Len() == 0 {
		t.Fatal("no gap samples collected")
	}
	if res.GapFrac.Len() == 0 {
		t.Fatal("no fractional gap samples collected")
	}
	// Gaps are bounded by the trace horizon.
	if max := res.GapAbs.Max(); max > 7*24*3600 {
		t.Errorf("gap %v s exceeds horizon", max)
	}
}

func TestOccupancySeries(t *testing.T) {
	s := testScenario(t, Refresh(), 0)
	s.SampleEvery = 6 * time.Hour
	res, err := Run(s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ZoneSeries == nil || res.ZoneSeries.Len() < 20 {
		t.Fatalf("zone series too short: %v", res.ZoneSeries)
	}
	if res.RecordSeries.MaxValue() < res.ZoneSeries.MaxValue() {
		t.Error("fewer records than zones cached")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testScenario(t, RefreshRenew(core.LRU{C: 3}), 6*time.Hour))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(testScenario(t, RefreshRenew(core.LRU{C: 3}), 6*time.Hour))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.SRFailedAttack != b.SRFailedAttack || a.CSQueriesTotal != b.CSQueriesTotal ||
		a.ServerStats.Renewals != b.ServerStats.Renewals {
		t.Errorf("runs differ: %+v vs %+v", a.ServerStats, b.ServerStats)
	}
}

func TestSchemeNames(t *testing.T) {
	if Vanilla().Name != "DNS" {
		t.Errorf("Vanilla name = %q", Vanilla().Name)
	}
	if got := RefreshRenew(core.LRU{C: 1}).Name; got != "Refresh+LRU(1)" {
		t.Errorf("RefreshRenew name = %q", got)
	}
}

func TestRunRequiresTree(t *testing.T) {
	if _, err := Run(Scenario{}); err == nil {
		t.Error("Run accepted empty scenario")
	}
}

func TestRunPartitionedSplitsLoad(t *testing.T) {
	s := testScenario(t, Vanilla(), 24*time.Hour)
	one, err := RunPartitioned(s, 1)
	if err != nil {
		t.Fatalf("RunPartitioned(1): %v", err)
	}
	four, err := RunPartitioned(s, 4)
	if err != nil {
		t.Fatalf("RunPartitioned(4): %v", err)
	}
	if four.SRQueriesTotal != one.SRQueriesTotal {
		t.Errorf("query counts differ: %d vs %d", four.SRQueriesTotal, one.SRQueriesTotal)
	}
	// Splitting the client population dilutes each cache: more upstream
	// traffic and at least as many failures.
	if four.CSQueriesTotal <= one.CSQueriesTotal {
		t.Errorf("4-way split sent %d upstream vs %d for shared cache",
			four.CSQueriesTotal, one.CSQueriesTotal)
	}
	// SR failure rates saturate under a 24h blackout, so allow noise; the
	// split population must not do meaningfully better than a shared cache.
	if four.SRFailRate() < one.SRFailRate()-0.07 {
		t.Errorf("4-way split failed much less (%.3f) than shared cache (%.3f)",
			four.SRFailRate(), one.SRFailRate())
	}
}

func TestRunPartitionedRejectsBadParts(t *testing.T) {
	s := testScenario(t, Vanilla(), 0)
	if _, err := RunPartitioned(s, 0); err == nil {
		t.Error("parts=0 accepted")
	}
}

// TestServerStatsSumCarriesEveryCounter compares the generic sum the run
// now accumulates ServerStats with against the hand-written sum it
// replaced, kept here as the oracle: equal on the ten fields that one
// copied, and no longer zero on the eleven it forgot (StaleAnswers, which
// the serve-stale experiment prints, among them).
func TestServerStatsSumCarriesEveryCounter(t *testing.T) {
	tenFieldSum := func(a, b core.Stats) core.Stats {
		a.QueriesIn += b.QueriesIn
		a.Resolved += b.Resolved
		a.Failed += b.Failed
		a.CacheAnswered += b.CacheAnswered
		a.QueriesOut += b.QueriesOut
		a.QueriesOutFailed += b.QueriesOutFailed
		a.RenewalQueries += b.RenewalQueries
		a.RenewalFailed += b.RenewalFailed
		a.Renewals += b.Renewals
		a.Referrals += b.Referrals
		return a
	}
	// Every counter gets a distinct non-zero value: 1, 2, 3, … in a and
	// 100, 200, 300, … in b.
	fill := func(scale uint64) core.Stats {
		var st core.Stats
		v := reflect.ValueOf(&st).Elem()
		n := uint64(0)
		var set func(v reflect.Value)
		set = func(v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				if v.Field(i).Kind() == reflect.Struct {
					set(v.Field(i))
					continue
				}
				n++
				v.Field(i).SetUint(n * scale)
			}
		}
		set(v)
		return st
	}
	a, b := fill(1), fill(100)
	got, old := metrics.Sum(a, b), tenFieldSum(a, b)

	gotPairs, oldPairs, aPairs, bPairs := metrics.Pairs(got), metrics.Pairs(old), metrics.Pairs(a), metrics.Pairs(b)
	if len(gotPairs) < 21 {
		t.Fatalf("core.Stats has %d counters, it had 21 when this was written", len(gotPairs))
	}
	summedByOld := 0
	for i, g := range gotPairs {
		want := aPairs[i].Value + bPairs[i].Value
		if g.Value != want {
			t.Errorf("Sum.%s = %d, want %d", g.Name, g.Value, want)
		}
		switch oldPairs[i].Value {
		case want:
			summedByOld++
		case aPairs[i].Value: // one of the eleven the old sum dropped
		default:
			t.Errorf("oracle.%s = %d: neither summed nor left alone", g.Name, oldPairs[i].Value)
		}
	}
	if summedByOld != 10 {
		t.Errorf("the old sum agrees on %d fields, want exactly the 10 it copied", summedByOld)
	}
	if old.StaleAnswers != a.StaleAnswers {
		t.Errorf("the oracle summed StaleAnswers (%d); it is one of the fields the old sum dropped", old.StaleAnswers)
	}
}
