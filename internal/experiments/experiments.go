// Package experiments regenerates every table and figure in the paper's
// evaluation (§5): Table 1 (trace statistics), Fig. 3 (IRR expiry gap
// CDFs), Figs. 4–11 (failed-query percentages under root+TLD DDoS for
// vanilla DNS, TTL refresh, the four renewal policies, long TTL, and the
// combined scheme), Table 2 (message and memory overhead), and Fig. 12
// (cache occupancy over a month), plus the ablations DESIGN.md calls out.
//
// An experiment is data: a plan lists the simulation runs a table needs as
// comparable runSpec values and says how to print their results. Suite.Run
// gathers the plans of the requested tables, executes each distinct spec
// once on GOMAXPROCS workers, and prints in table order. Everything is
// deterministic given Config.Seed, whatever the worker count.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"resilientdns/internal/topology"
	"resilientdns/internal/workload"
)

// Config scales the evaluation. The defaults preserve the paper's shapes;
// EXPERIMENTS.md records what the full set costs to run.
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

// scale names c's size for the deviation list, whatever its seed: the
// length of its weekly traces.
func (c Config) scale() string { return fmt.Sprintf("%d queries", c.TraceQueries) }

// attackDurations are the paper's attack lengths.
var attackDurations = []time.Duration{3 * time.Hour, 6 * time.Hour, 12 * time.Hour, 24 * time.Hour}

// longTTLValues are the paper's long-TTL settings.
var longTTLValues = []time.Duration{24 * time.Hour, 3 * 24 * time.Hour, 5 * 24 * time.Hour, 7 * 24 * time.Hour}

// renewalCredits are the paper's credit values.
var renewalCredits = []float64{1, 3, 5}

// weekTraces is how many of Suite.traces are the 7-day ones.
const weekTraces = 5

// Suite holds the shared traces, the hierarchies generated so far and the
// memoised runs. The trees and the memo are touched only by the goroutine
// that calls Run, so a Suite serves one Run at a time.
type Suite struct {
	cfg    Config
	traces []workload.Trace // TRC1..TRC5 (7 days each), then TRC6 (30 days)
	trees  map[treeVariant]*topology.Tree
	memo   map[runSpec]*run
}

// NewSuite generates the base topology and the traces.
func NewSuite(cfg Config) (*Suite, error) {
	s := &Suite{
		cfg:   cfg,
		trees: make(map[treeVariant]*topology.Tree),
		memo:  make(map[runSpec]*run),
	}
	tree, err := s.tree(treeVariant{})
	if err != nil {
		return nil, err
	}
	names := tree.QueryableNames()
	for i := 1; i <= weekTraces; i++ {
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
	s.traces = append(s.traces, workload.Generate(gm, names))
	return s, nil
}

// treeVariant names one of the hierarchies the suite simulates over: the
// configured seed and size, and what one variant changes.
type treeVariant struct {
	// longTTL forces every zone's IRR TTL — the long-TTL scheme as
	// deployed by operators (0 = as generated).
	longTTL time.Duration
	// signed is the DNSSEC-signed twin.
	signed bool
}

// tree returns (generating on first use) the hierarchy v names.
func (s *Suite) tree(v treeVariant) (*topology.Tree, error) {
	if t, ok := s.trees[v]; ok {
		return t, nil
	}
	tp := topology.DefaultParams(s.cfg.Seed)
	tp.NumTLDs = s.cfg.NumTLDs
	tp.SLDsPerTLD = s.cfg.SLDsPerTLD
	tp.IRRTTLOverride = v.longTTL
	tp.Signed = v.signed
	t, err := topology.Generate(tp)
	if err != nil {
		return nil, err
	}
	s.trees[v] = t
	return t, nil
}

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are the texts of the table's printed claims, in declaration
	// order; each is checked by its predicate (RunStats.Verdicts).
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

// Experiment is one row of the suite's experiment table.
type Experiment struct {
	ID string
	// Frozen marks the experiments whose output is results_full.txt:
	// `dnssim -exp all` runs exactly these, in table order. The others
	// post-date that file and run by id only.
	Frozen bool
	plan   func(*Suite) plan
}

// experiments is the one list of experiment ids: Run, `-exp all`, `-list`
// and the unknown-id message all read it.
var experiments = []Experiment{
	{"table1", true, table1},
	{"fig3", true, fig3},
	{"fig4", true, fig4},
	{"fig5", true, fig5},
	{"fig6", true, fig6},
	{"fig7", true, fig7},
	{"fig8", true, fig8},
	{"fig9", true, fig9},
	{"fig10", true, fig10},
	{"fig11", true, fig11},
	{"table2", true, table2},
	{"fig12", true, fig12},
	{"ablation-childirr", true, ablationChildIRRs},
	{"ablation-refresh", true, ablationRenewalWithoutRefresh},
	{"ablation-negcache", true, ablationNegativeCache},
	{"maxdamage", true, maxDamage},
	{"dnssec", true, dnssecExtension},
	{"partition", true, partition},
	{"servestale", true, serveStaleBaseline},
	{"restart", false, restart},
	{"mesh", false, meshFleet},
}

// Experiments lists every experiment in canonical order.
func Experiments() []Experiment { return append([]Experiment(nil), experiments...) }

// ErrUnknownID is wrapped by Run's error for an id the table does not hold.
var ErrUnknownID = errors.New("experiments: unknown id")

// lookup resolves ids against the experiment table; "all" stands for the
// frozen rows.
func lookup(ids []string) ([]Experiment, error) {
	var out []Experiment
	for _, id := range ids {
		n := len(out)
		for _, e := range experiments {
			if e.ID == id || (id == "all" && e.Frozen) {
				out = append(out, e)
			}
		}
		if len(out) == n {
			known := make([]string, len(experiments))
			for i, e := range experiments {
				known[i] = e.ID
			}
			return nil, fmt.Errorf("%w %q (known: %s)", ErrUnknownID, id, strings.Join(known, ", "))
		}
	}
	return out, nil
}
