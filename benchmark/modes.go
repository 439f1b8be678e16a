package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json: the contract the driver reads, and where
// -compare takes each metric's direction and regression bound from.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// resultsFile is what -out writes and -compare reads: every set's
// end-to-end metrics per workload, fail_ratio beside them.
type resultsFile struct {
	Header map[string]string               `json:"header"`
	Sets   []map[string]map[string]float64 `json:"sets"`
}

func header(root string, seed int64, seconds float64) map[string]string {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"commit":  commit,
		"go":      runtime.Version(),
		"nproc":   fmt.Sprint(runtime.NumCPU()),
		"seed":    fmt.Sprint(seed),
		"seconds": fmt.Sprint(seconds),
		"network": "loopback only: generator, dnscache and rig share this host's cores",
	}
}

func printHeader(w io.Writer, h map[string]string) {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %-8s %s\n", k, h[k])
	}
}

// options are the flags of the human-facing modes.
type options struct {
	seed    int64
	seconds float64
	only    string // one workload, or "" for all
	sets    int
	strict  bool
	outPath string
}

func (o *options) workloads() ([]*workload, error) {
	if o.only != "" {
		w := workloadByName(o.only)
		if w == nil {
			return nil, fmt.Errorf("unknown -workload %q", o.only)
		}
		return []*workload{w}, nil
	}
	all := make([]*workload, len(workloads))
	for i := range workloads {
		all[i] = &workloads[i]
	}
	return all, nil
}

// runAll is the default mode: every selected workload measured untraced,
// then traced for its per-layer numbers; with -sets N the untraced runs
// are repeated N times and their spread printed instead.
func runAll(b *bench, root string, o options, out io.Writer) error {
	ws, err := o.workloads()
	if err != nil {
		return err
	}
	h := header(root, o.seed, o.seconds)
	printHeader(out, h)
	res := resultsFile{Header: h}
	fixed, sat := splitSeconds(o.seconds)

	var fl *floor
	if o.sets <= 1 {
		if fl, err = b.measureFloor(); err != nil {
			return err
		}
		fmt.Fprintf(out, "generator self-check: ceiling %.0f qps against an echo child; round trip %.1f us bare, %.1f us through UDPServer\n",
			fl.ceilingQPS, fl.rawRTT, fl.echoRTT)
	}
	bound := false
	for set := 0; set < max(o.sets, 1); set++ {
		res.Sets = append(res.Sets, map[string]map[string]float64{})
		for _, w := range ws {
			m, err := b.measure(w, runPlan{seed: o.seed, rounds: defaultRounds, fixed: fixed, sat: sat})
			if err != nil {
				return err
			}
			m.describe(out)
			ms := m.endToEnd()
			printMetrics(out, w.name, ms)
			row := map[string]float64{"fail_ratio": failRatio(m.failed(), m.attempted())}
			for _, x := range ms {
				row[x.name] = x.value
			}
			res.Sets[set][w.name] = row
			if fl != nil {
				lr, err := b.layerRun(root, w, o.seed, o.seconds, fl, out)
				if err != nil {
					return err
				}
				printMetrics(out, w.name, lr.metrics)
				bound = bound || lr.generatorBound
			}
		}
	}
	if o.sets > 1 {
		printSpread(out, ws, res.Sets)
	}
	if o.outPath != "" {
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bound && o.strict {
		return fmt.Errorf("a workload was generator-bound (-strict)")
	}
	return nil
}

// column collects one metric of one workload across sets.
func column(sets []map[string]map[string]float64, workload, metric string) []float64 {
	var col []float64
	for _, set := range sets {
		if v, ok := set[workload][metric]; ok {
			col = append(col, v)
		}
	}
	return col
}

func metricNames(sets []map[string]map[string]float64, workload string) []string {
	seen := map[string]bool{}
	for _, set := range sets {
		for name := range set[workload] {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printSpread prints median and quartiles of every metric over the sets;
// the spread column is what a regression bound has to stay above.
func printSpread(out io.Writer, ws []*workload, sets []map[string]map[string]float64) {
	fmt.Fprintf(out, "\n%-9s %-26s %12s %12s %12s %9s   over %d sets\n", "workload", "metric", "q1", "median", "q3", "iqr/med", len(sets))
	for _, w := range ws {
		for _, name := range metricNames(sets, w.name) {
			col := column(sets, w.name, name)
			q1, q3 := quartiles(col)
			fmt.Fprintf(out, "%-9s %-26s %12.6g %12.6g %12.6g %8.2f%%\n", w.name, name, q1, median(col), q3, 100*spread(col))
		}
	}
}

// verdict compares one metric's old and new values under its bound.
// The spread of the old runs decides whether the bound can resolve a
// difference at all.
func verdict(spec metricSpec, old, new []float64) string {
	mo, mn := median(old), median(new)
	if mo == 0 {
		return "unresolved"
	}
	change := (mn - mo) / mo // > 0: grew
	if spec.Better == "higher" {
		change = -change
	}
	// change > 0 now means worse.
	switch {
	case spread(old) > spec.Bound || spread(new) > spec.Bound:
		return "unresolved"
	case change > spec.Bound:
		return "worse"
	case change < -spec.Bound:
		return "better"
	}
	return "same"
}

// compare applies BENCHMARK.json's bounds to two results files and
// prints one row per workload and metric. It fails on any worse row and
// on any rise in fail_ratio.
func compare(root, oldPath, newPath string, out io.Writer) error {
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	load := func(path string) (*resultsFile, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r resultsFile
		return &r, json.Unmarshal(b, &r)
	}
	old, err := load(oldPath)
	if err != nil {
		return err
	}
	new, err := load(newPath)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(out, "%-9s %-26s %12s %12s %8s %7s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			o, n := column(old.Sets, w.Name, m.Name), column(new.Sets, w.Name, m.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v := verdict(m, o, n)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(out, "%-9s %-26s %12.6g %12.6g %+7.1f%% %6.1f%%  %s\n", w.Name, m.Name, median(o), median(n),
				100*(median(n)-median(o))/median(o), 100*m.Bound, v)
		}
		if o, n := median(column(old.Sets, w.Name, "fail_ratio")), median(column(new.Sets, w.Name, "fail_ratio")); n > o {
			bad++
			fmt.Fprintf(out, "%-9s %-26s %12.6g %12.6g %26s\n", w.Name, "fail_ratio", o, n, "worse: more queries fail")
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}
