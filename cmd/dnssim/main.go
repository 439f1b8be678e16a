// Command dnssim regenerates the paper's tables and figures from the
// trace-driven simulation. Run with -exp all (default) or a specific id
// such as -exp fig4.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"resilientdns/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id(s), comma-separated, or 'all'")
	seed := flag.Int64("seed", 1, "master random seed")
	quick := flag.Bool("quick", false, "use the small test scale instead of the full evaluation scale")
	verbose := flag.Bool("v", false, "print per-experiment timing")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Experiments() {
			if e.Frozen {
				fmt.Println(e.ID)
			} else {
				fmt.Printf("%s\t(by id only: not part of -exp all)\n", e.ID)
			}
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Seed = *seed

	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnssim:", err)
		os.Exit(1)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = nil
		for _, e := range experiments.Experiments() {
			if e.Frozen {
				ids = append(ids, e.ID)
			}
		}
	}
	for _, id := range ids {
		t0 := time.Now()
		tbl, err := suite.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dnssim:", err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		if *verbose {
			fmt.Fprintf(os.Stderr, "[%s took %v]\n", id, time.Since(t0))
		}
	}
}
