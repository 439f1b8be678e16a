package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/sim"
	"resilientdns/internal/topology"
	"resilientdns/internal/workload"
)

// runSpec is one simulation run as a value. It is comparable: it is the
// memo key, so two runs share a result exactly when every field agrees.
type runSpec struct {
	tree   treeVariant
	trace  int // index into Suite.traces
	scheme sim.Scheme
	// attack is the length of the blackout that starts on day seven
	// (0 = none): root and TLDs, or with maxDamage the greedy §6 target
	// set of the same zone budget.
	attack      time.Duration
	maxDamage   bool
	sample      time.Duration // cache-occupancy sampling interval (0 = off)
	noChildIRRs bool
	// servers is how many caching servers the clients are split across;
	// mesh joins them into a cooperative mesh.
	servers int
	mesh    bool
	crash   crashMode
}

// crashMode kills the caching server six hours into the blackout.
type crashMode int

const (
	noCrash crashMode = iota
	coldRestart
	warmRestart // the replacement recovers from a persist snapshot+journal
)

// spec is the run every experiment varies from: trace i replayed through
// one vanilla caching server over the base tree, under the day-seven
// root+TLD blackout of length dur.
func spec(trace int, dur time.Duration) runSpec {
	return runSpec{trace: trace, scheme: sim.Vanilla(), attack: dur, servers: 1}
}

// outcome is what one run measured.
type outcome struct {
	*sim.Results
	// Crash runs only: the attack-window stub-resolver counts at the kill
	// instant, and the entries a warm restart replayed.
	preQueries, preFail uint64
	replayed            int
}

// run is one memoised simulation: planned by Run, executed by a worker,
// read once done is closed.
type run struct {
	spec runSpec
	tree *topology.Tree
	done chan struct{}
	out  *outcome
	err  error
}

// plan is a table declared before it is run: its header, the runs it
// needs, and fill, which prints their outcomes (same order as specs) into
// rows.
type plan struct {
	Table
	specs []runSpec
	fill  func(t *Table, res []*outcome)
}

// row is one line of a grid: its label and the run its columns vary.
type row struct {
	label string
	spec  runSpec
}

// column is one column of a grid: what it changes in the row's run (nil =
// nothing) and how it prints the outcome.
type column struct {
	header string
	vary   func(*runSpec)
	cell   func(*outcome) string
}

// grid plans the rows × columns table most experiments are; corner heads
// the label column.
func grid(id, title, corner string, rows []row, cols []column, notes ...string) plan {
	p := plan{Table: Table{ID: id, Title: title, Columns: []string{corner}, Notes: notes}}
	for _, c := range cols {
		p.Columns = append(p.Columns, c.header)
	}
	for _, r := range rows {
		for _, c := range cols {
			sp := r.spec
			if c.vary != nil {
				c.vary(&sp)
			}
			p.specs = append(p.specs, sp)
		}
	}
	p.fill = func(t *Table, res []*outcome) {
		for i, r := range rows {
			cells := []string{r.label}
			for j, c := range cols {
				cells = append(cells, c.cell(res[i*len(cols)+j]))
			}
			t.Rows = append(t.Rows, cells)
		}
	}
	return p
}

// weekRows is one row per 7-day trace, each under the blackout of length dur.
func (s *Suite) weekRows(dur time.Duration) []row {
	rows := make([]row, weekTraces)
	for i := range rows {
		rows[i] = row{s.traces[i].Label, spec(i, dur)}
	}
	return rows
}

// scheme is the column variation that swaps the caching-server scheme.
func scheme(sc sim.Scheme) func(*runSpec) {
	return func(sp *runSpec) { sp.scheme = sc }
}

// pct renders a fraction as a percentage cell.
func pct(frac float64) string { return fmt.Sprintf("%.2f%%", 100*frac) }

func srFail(o *outcome) string   { return pct(o.SRFailRate()) }
func csFail(o *outcome) string   { return pct(o.CSFailRate()) }
func messages(o *outcome) string { return fmt.Sprintf("%d", o.MessagesOut()) }

// srcs is the column pair the figures print per setting: SR-level and
// CS-level failed queries.
func srcs(name string, vary func(*runSpec)) []column {
	return []column{{name + " SR", vary, srFail}, {name + " CS", vary, csFail}}
}

// RunStats is what one Run did.
type RunStats struct {
	Runs     int // distinct simulations executed
	MemoHits int // runs a table asked for that were already planned or done
	Workers  int
}

// Run renders the requested tables ("all" = the frozen ones). Every id is
// checked before anything runs; then each distinct run the tables need and
// the memo lacks executes once, on GOMAXPROCS workers, and emit gets the
// tables in the order asked, each as soon as its runs are done.
func (s *Suite) Run(ids []string, emit func(*Table)) (RunStats, error) {
	exps, err := lookup(ids)
	if err != nil {
		return RunStats{}, err
	}
	plans := make([]plan, len(exps))
	for i, e := range exps {
		plans[i] = e.plan(s)
	}
	return s.render(plans, emit)
}

// render is the planner: it owns the memo and the tree cache, the workers
// see only the runs handed to them.
func (s *Suite) render(plans []plan, emit func(*Table)) (RunStats, error) {
	st := RunStats{Workers: runtime.GOMAXPROCS(0)}
	var queue []*run
	for _, p := range plans {
		for _, sp := range p.specs {
			if s.memo[sp] != nil {
				st.MemoHits++
				continue
			}
			r := &run{spec: sp, done: make(chan struct{})}
			r.tree, r.err = s.tree(sp.tree)
			s.memo[sp] = r
			queue = append(queue, r)
		}
	}
	st.Runs = len(queue)

	jobs := make(chan *run, len(queue))
	for _, r := range queue {
		jobs <- r
	}
	close(jobs)
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < st.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				if r.err == nil {
					r.out, r.err = s.execute(r.spec, r.tree)
				}
				close(r.done)
			}
		}()
	}

	for _, p := range plans {
		res := make([]*outcome, len(p.specs))
		for i, sp := range p.specs {
			r := s.memo[sp]
			<-r.done
			if r.err != nil {
				// Nobody waits for the rest: fail the queued runs too, so
				// the workers stop after the ones in flight.
				for q := range jobs {
					q.err = r.err
					close(q.done)
				}
				return st, fmt.Errorf("experiments: %s: %w", p.ID, r.err)
			}
			res[i] = r.out
		}
		p.fill(&p.Table, res)
		emit(&p.Table)
	}
	return st, nil
}

// execute runs one spec: the only place the package builds a sim.Scenario.
// It reads nothing of the suite that changes after NewSuite.
func (s *Suite) execute(sp runSpec, tree *topology.Tree) (*outcome, error) {
	tr := s.traces[sp.trace]
	sc := sim.Scenario{
		Tree: tree, Trace: tr, Scheme: sp.scheme, Seed: s.cfg.Seed,
		SampleEvery: sp.sample, NoChildIRRs: sp.noChildIRRs,
	}
	start := s.cfg.Epoch.Add(6 * 24 * time.Hour)
	switch {
	case sp.maxDamage:
		sc.Attack = attack.MaxDamage(start, sp.attack, s.damageBudget(), workload.ZoneQueryCounts(tr))
	case sp.attack > 0:
		sc.Attack = attack.RootAndTLDs(start, sp.attack, tree.AllZoneNames())
	}
	switch {
	case sp.crash != noCrash:
		return runRestart(sc, sp.crash == warmRestart)
	case sp.mesh:
		res, err := runMeshFleet(sc, sp.servers)
		return &outcome{Results: res}, err
	}
	res, err := sim.RunPartitioned(sc, sp.servers)
	return &outcome{Results: res}, err
}

// damageBudget gives the max-damage attacker as many zones as root+TLDs.
func (s *Suite) damageBudget() int { return s.cfg.NumTLDs + 1 }
