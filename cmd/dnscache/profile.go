//go:build profile

// The profile build of dnscache. With DNSCACHE_PROFILE naming a
// directory, each instance writes <pid>.cpu.pprof (the whole run),
// <pid>.allocs.pprof (at exit) and <pid>.memstats (one line at exit:
// mallocs and bytes allocated, also per query taken in, and the heap and
// stack figures) there. The meter
// builds dnscache with the GOFLAGS it inherits, so
//
//	GOFLAGS=-tags=profile DNSCACHE_PROFILE=$PWD/prof go run -C benchmark . -workload miss -trace 0
//
// profiles every instance of a run; the largest CPU profile is the
// saturation phase's. `make profile W=miss` runs that and prints it.
// `bash benchmark/run.sh` does not work here: it exports
// GOFLAGS=-buildvcs=false, which replaces the tag, so its dnscache is the
// default build and writes no profile. The default build does not contain
// this file.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

func init() {
	dir := os.Getenv("DNSCACHE_PROFILE")
	if dir == "" {
		return
	}
	prefix := filepath.Join(dir, fmt.Sprint(os.Getpid()))
	cpu, err := os.Create(prefix + ".cpu.pprof")
	if err == nil {
		err = pprof.StartCPUProfile(cpu)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dnscache: profile:", err)
		return
	}
	atExit = func(queriesIn uint64) {
		pprof.StopCPUProfile()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		perQuery := func(v uint64) float64 { return float64(v) / float64(max(queriesIn, 1)) }
		line := fmt.Sprintf("queries_in=%d mallocs=%d total_alloc=%d mallocs_per_query=%.1f bytes_per_query=%.0f heap_inuse=%d heap_sys=%d heap_released=%d stack_inuse=%d num_gc=%d\n",
			queriesIn, ms.Mallocs, ms.TotalAlloc, perQuery(ms.Mallocs), perQuery(ms.TotalAlloc),
			ms.HeapInuse, ms.HeapSys, ms.HeapReleased, ms.StackInuse, ms.NumGC)
		for _, err := range []error{
			cpu.Close(),
			os.WriteFile(prefix+".memstats", []byte(line), 0o644),
			writeAllocs(prefix + ".allocs.pprof"),
		} {
			if err != nil {
				fmt.Fprintln(os.Stderr, "dnscache: profile:", err)
			}
		}
	}
}

// writeAllocs writes the allocation profile to path.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
