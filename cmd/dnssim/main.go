// Command dnssim regenerates the paper's tables and figures from the
// trace-driven simulation. Run with -exp all (default) or specific ids
// such as -exp fig4,table2. The simulations behind the requested tables
// run on all cores; the output does not depend on how many there are.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"resilientdns/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit code: 2 for a bad command line (an unknown -exp id included, before
// anything is simulated), 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dnssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id(s), comma-separated, or 'all'")
	seed := fs.Int64("seed", 1, "master random seed")
	quick := fs.Bool("quick", false, "use the small test scale instead of the full evaluation scale")
	verbose := fs.Bool("v", false, "print when each table is done, then runs executed, memo hits and workers")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.Experiments() {
			if e.Frozen {
				fmt.Fprintln(stdout, e.ID)
			} else {
				fmt.Fprintf(stdout, "%s\t(by id only: not part of -exp all)\n", e.ID)
			}
		}
		return 0
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Seed = *seed

	t0 := time.Now()
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "dnssim:", err)
		return 1
	}
	st, err := suite.Run(strings.Split(*exp, ","), func(tbl *experiments.Table) {
		tbl.Fprint(stdout)
		if *verbose {
			fmt.Fprintf(stderr, "[%s done at %v]\n", tbl.ID, time.Since(t0).Round(time.Millisecond))
		}
	})
	if err != nil {
		fmt.Fprintln(stderr, "dnssim:", err)
		if errors.Is(err, experiments.ErrUnknownID) {
			return 2
		}
		return 1
	}
	if *verbose {
		fmt.Fprintf(stderr, "[%d runs executed, %d memo hits, %d workers, %v]\n",
			st.Runs, st.MemoHits, st.Workers, time.Since(t0).Round(time.Millisecond))
	}
	return 0
}
