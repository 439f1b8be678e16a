// Command benchmark is the repository's meter. It builds cmd/dnscache
// from the working tree, runs it as a child process fed by an
// authoritative rig of its own, drives it over loopback UDP and prints
// end-to-end and per-layer metrics by name and unit, checking every
// answer. See README.md beside this file.
//
//	go run -C benchmark .                       # everything, traced runs included
//	go run -C benchmark . -workload hit         # one workload
//	go run -C benchmark . -sets 5 -out new.json # spread over repeated runs
//	go run -C benchmark . -compare old.json new.json
//
// BENCHMARK.json's command (benchmark/run.sh) calls it once per run with
// -workload, -seed, -seconds and -trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	err := run()
	killChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run() error {
	role := flag.String("role", "", "internal: run as a child (auth, echo, spin)")
	seed := flag.Int64("seed", 1, "seed for topology, name popularity and send schedules")
	tldTTL := flag.Uint("tld-ttl", hourTTL, "internal (-role auth): TLD infrastructure TTL")
	sldTTL := flag.Uint("sld-ttl", hourTTL, "internal (-role auth): SLD infrastructure TTL")
	dataTTL := flag.Uint("data-ttl", hourTTL, "internal (-role auth): host record TTL")
	name := flag.String("workload", "", "run one workload (hit, miss, blackout, flood); empty = all")
	seconds := flag.Float64("seconds", 30, "measuring time per run: half at the fixed rate, half at saturation, a quarter of each on the echo child")
	trace := flag.String("trace", "", "driver mode, needs -workload: 0 = end-to-end metrics, 1 = per-layer metrics; the last line of output is one JSON object")
	sets := flag.Int("sets", 1, "more than 1: skip the traced runs, repeat the untraced ones this many times and print median and quartiles per metric")
	strict := flag.Bool("strict", false, "exit non-zero if a workload is generator-bound")
	outPath := flag.String("out", "", "write the end-to-end results as JSON, for -compare")
	doCompare := flag.Bool("compare", false, "compare two -out files: benchmark -compare old.json new.json")
	flag.Parse()

	switch *role {
	case "auth":
		return serveAuth(rigSpec{Seed: *seed, TLDTTL: uint32(*tldTTL), SLDTTL: uint32(*sldTTL), DataTTL: uint32(*dataTTL)}, os.Stdin, os.Stdout)
	case "echo":
		return serveEcho(os.Stdin, os.Stdout)
	case "spin":
		return serveSpin(os.Stdin, os.Stdout)
	case "":
	default:
		return fmt.Errorf("unknown -role %q", *role)
	}

	if *doCompare {
		root, err := findRoot()
		if err != nil {
			return err
		}
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two files: old.json new.json")
		}
		return compare(root, flag.Arg(0), flag.Arg(1), os.Stdout)
	}

	// Children are killed however the benchmark ends: on return (main),
	// on a signal (here), and on a crash (Pdeathsig, set when they start).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	b, root, err := newBench()
	if err != nil {
		return err
	}
	if *trace == "" {
		return runAll(b, root, options{seed: *seed, seconds: *seconds, only: *name, sets: *sets,
			strict: *strict, outPath: *outPath}, os.Stdout)
	}

	// Driver mode: one run of one workload, one JSON line at the end.
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("-trace needs a -workload; %q is not one", *name)
	}
	switch *trace {
	case "0":
		fixed, sat := splitSeconds(*seconds)
		m, err := b.measure(w, runPlan{seed: *seed, rounds: defaultRounds, fixed: fixed, sat: sat})
		if err != nil {
			return err
		}
		m.describe(os.Stdout)
		ms := m.endToEnd()
		printMetrics(os.Stdout, w.name, ms)
		return writeResult(os.Stdout, m.wrong() == 0, m.attempted(), m.failed(), ms)
	case "1":
		lr, err := b.layerRun(root, w, *seed, *seconds, nil, os.Stdout)
		if err != nil {
			return err
		}
		printMetrics(os.Stdout, w.name, lr.metrics)
		return writeResult(os.Stdout, lr.wrong == 0, lr.attempted, lr.failed, lr.metrics)
	}
	return fmt.Errorf("-trace %q: want 0 or 1", *trace)
}
