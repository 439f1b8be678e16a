// Package experiments regenerates every table and figure in the paper's
// evaluation (§5): Table 1 (trace statistics), Fig. 3 (IRR expiry gap
// CDFs), Figs. 4–11 (failed-query percentages under root+TLD DDoS for
// vanilla DNS, TTL refresh, the four renewal policies, long TTL, and the
// combined scheme), Table 2 (message and memory overhead), and Fig. 12
// (cache occupancy over a month), plus the ablations DESIGN.md calls out.
//
// Everything is deterministic given Config.Seed. Results are memoised per
// (tree, trace, scheme, attack) so figures that share runs do not repeat
// them.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/sim"
	"resilientdns/internal/topology"
	"resilientdns/internal/workload"
)

// Config scales the evaluation. The defaults run the full set of
// experiments in minutes on a laptop while preserving the paper's shapes.
type Config struct {
	Seed int64
	// Epoch anchors all traces.
	Epoch time.Time
	// NumTLDs / SLDsPerTLD size the synthetic hierarchy.
	NumTLDs    int
	SLDsPerTLD int
	// TraceClients / TraceQueries size each of the five 7-day traces.
	TraceClients int
	TraceQueries int
	// MonthClients / MonthQueries size the 30-day trace (TRC6).
	MonthClients int
	MonthQueries int
}

// DefaultConfig returns the standard evaluation scale.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Epoch:        time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		NumTLDs:      12,
		SLDsPerTLD:   70,
		TraceClients: 300,
		TraceQueries: 50000,
		MonthClients: 300,
		MonthQueries: 215000,
	}
}

// QuickConfig returns a much smaller scale for tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.NumTLDs = 6
	c.SLDsPerTLD = 25
	c.TraceClients = 80
	c.TraceQueries = 9000
	c.MonthClients = 80
	c.MonthQueries = 36000
	return c
}

// attackDurations are the paper's attack lengths.
var attackDurations = []time.Duration{3 * time.Hour, 6 * time.Hour, 12 * time.Hour, 24 * time.Hour}

// longTTLValues are the paper's long-TTL settings.
var longTTLValues = []time.Duration{24 * time.Hour, 3 * 24 * time.Hour, 5 * 24 * time.Hour, 7 * 24 * time.Hour}

// renewalCredits are the paper's credit values.
var renewalCredits = []float64{1, 3, 5}

// Suite holds the shared topology, traces, and memoised runs.
type Suite struct {
	cfg       Config
	baseTree  *topology.Tree
	longTrees map[time.Duration]*topology.Tree
	signed    *topology.Tree
	traces    []workload.Trace // TRC1..TRC5, 7 days each
	month     workload.Trace   // TRC6, 30 days
	memo      map[string]*sim.Results
}

// NewSuite generates the shared topology and traces.
func NewSuite(cfg Config) (*Suite, error) {
	s := &Suite{
		cfg:       cfg,
		longTrees: make(map[time.Duration]*topology.Tree),
		memo:      make(map[string]*sim.Results),
	}
	tree, err := s.tree(nil)
	if err != nil {
		return nil, err
	}
	s.baseTree = tree
	names := tree.QueryableNames()
	for i := 1; i <= 5; i++ {
		gp := workload.DefaultGenParams(fmt.Sprintf("TRC%d", i), cfg.Seed+int64(i)*1000, cfg.Epoch)
		gp.Clients = cfg.TraceClients
		gp.TotalQueries = cfg.TraceQueries
		// Vary per-trace character the way different organisations do.
		gp.ZipfS = 1.2 + 0.1*float64(i)
		gp.RepeatProb = 0.3 + 0.05*float64(i)
		gp.ClientLocalProb = 0.3
		s.traces = append(s.traces, workload.Generate(gp, names))
	}
	gm := workload.DefaultGenParams("TRC6", cfg.Seed+6000, cfg.Epoch)
	gm.Duration = 30 * 24 * time.Hour
	gm.Clients = cfg.MonthClients
	gm.TotalQueries = cfg.MonthQueries
	s.month = workload.Generate(gm, names)
	return s, nil
}

// Tree returns the shared base topology.
func (s *Suite) Tree() *topology.Tree { return s.baseTree }

// Traces returns the five 7-day traces.
func (s *Suite) Traces() []workload.Trace { return s.traces }

// MonthTrace returns the 30-day trace (TRC6).
func (s *Suite) MonthTrace() workload.Trace { return s.month }

// tree generates the suite's hierarchy — the configured seed and size —
// after vary (nil for the base tree) has changed what one variant changes.
func (s *Suite) tree(vary func(*topology.Params)) (*topology.Tree, error) {
	tp := topology.DefaultParams(s.cfg.Seed)
	tp.NumTLDs = s.cfg.NumTLDs
	tp.SLDsPerTLD = s.cfg.SLDsPerTLD
	if vary != nil {
		vary(&tp)
	}
	return topology.Generate(tp)
}

// longTree returns (generating on demand) the hierarchy with every zone's
// IRR TTL forced to ttl — the long-TTL scheme as deployed by operators.
func (s *Suite) longTree(ttl time.Duration) (*topology.Tree, error) {
	if t, ok := s.longTrees[ttl]; ok {
		return t, nil
	}
	t, err := s.tree(func(tp *topology.Params) { tp.IRRTTLOverride = ttl })
	if err != nil {
		return nil, err
	}
	s.longTrees[ttl] = t
	return t, nil
}

// attackFor builds the paper's root+TLD blackout starting on day seven.
func (s *Suite) attackFor(tree *topology.Tree, dur time.Duration) attack.Schedule {
	if dur <= 0 {
		return nil
	}
	start := s.cfg.Epoch.Add(6 * 24 * time.Hour)
	return attack.RootAndTLDs(start, dur, tree.AllZoneNames())
}

// scenario is tr replayed over tree under the day-seven blackout of
// length dur, the setting every experiment but maxdamage varies from.
func (s *Suite) scenario(tree *topology.Tree, tr workload.Trace, scheme sim.Scheme, dur time.Duration) sim.Scenario {
	return sim.Scenario{Tree: tree, Trace: tr, Attack: s.attackFor(tree, dur), Scheme: scheme, Seed: s.cfg.Seed}
}

// runKey builds the memoisation key.
func runKey(treeTag string, trace string, scheme sim.Scheme, dur, sample time.Duration, noChild bool) string {
	return fmt.Sprintf("%s|%s|%s|%v|%v|%v", treeTag, trace, scheme.Name, dur, sample, noChild)
}

// run executes (or recalls) one simulation.
func (s *Suite) run(tree *topology.Tree, treeTag string, tr workload.Trace, scheme sim.Scheme, dur, sample time.Duration, noChild bool) (*sim.Results, error) {
	key := runKey(treeTag, tr.Label, scheme, dur, sample, noChild)
	if r, ok := s.memo[key]; ok {
		return r, nil
	}
	sc := s.scenario(tree, tr, scheme, dur)
	sc.SampleEvery, sc.NoChildIRRs = sample, noChild
	r, err := sim.Run(sc)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", key, err)
	}
	s.memo[key] = r
	return r, nil
}

// runBase is run over the shared base tree.
func (s *Suite) runBase(tr workload.Trace, scheme sim.Scheme, dur time.Duration) (*sim.Results, error) {
	return s.run(s.baseTree, "base", tr, scheme, dur, 0, false)
}

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries the paper-shape expectations checked in EXPERIMENTS.md.
	Notes []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// pct renders a fraction as a percentage cell.
func pct(frac float64) string { return fmt.Sprintf("%.2f%%", 100*frac) }

// Experiment is one row of the suite's experiment table.
type Experiment struct {
	ID string
	// Frozen marks the experiments whose output is results_full.txt:
	// `dnssim -exp all` runs exactly these, in table order. The others
	// post-date that file and run by id only.
	Frozen bool
	run    func(*Suite) (*Table, error)
}

// experiments is the one list of experiment ids: Run, `-exp all`, `-list`
// and the unknown-id message all read it.
var experiments = []Experiment{
	{"table1", true, (*Suite).Table1},
	{"fig3", true, (*Suite).Fig3},
	{"fig4", true, (*Suite).Fig4},
	{"fig5", true, (*Suite).Fig5},
	{"fig6", true, (*Suite).Fig6},
	{"fig7", true, (*Suite).Fig7},
	{"fig8", true, (*Suite).Fig8},
	{"fig9", true, (*Suite).Fig9},
	{"fig10", true, (*Suite).Fig10},
	{"fig11", true, (*Suite).Fig11},
	{"table2", true, (*Suite).Table2},
	{"fig12", true, (*Suite).Fig12},
	{"ablation-childirr", true, (*Suite).AblationChildIRRs},
	{"ablation-refresh", true, (*Suite).AblationRenewalWithoutRefresh},
	{"ablation-negcache", true, (*Suite).AblationNegativeCache},
	{"maxdamage", true, (*Suite).MaxDamage},
	{"dnssec", true, (*Suite).DNSSECExtension},
	{"partition", true, (*Suite).Partition},
	{"servestale", true, (*Suite).ServeStaleBaseline},
	{"restart", false, (*Suite).Restart},
	{"mesh", false, (*Suite).Mesh},
}

// Experiments lists every experiment in canonical order.
func Experiments() []Experiment { return append([]Experiment(nil), experiments...) }

// Run executes one experiment by id.
func (s *Suite) Run(id string) (*Table, error) {
	known := make([]string, len(experiments))
	for i, e := range experiments {
		if e.ID == id {
			return e.run(s)
		}
		known[i] = e.ID
	}
	return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(known, ", "))
}
