package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark splits the CPUs it may use in two: the generator, the rig
// and the echo child run on the first half, dnscache alone on the second.
// Sharing cores made every number depend on how the kernel happened to
// interleave generator and server; apart, the generator's cost cannot leak
// into dnscache's latency, CPU time or throughput, and dnscache's capacity
// is that of nproc/2 cores. With one CPU there is nothing to split.

type cpuSet [16]uint64 // 1024 CPUs

func (s *cpuSet) list() []int {
	var out []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func setOf(cpus []int) *cpuSet {
	var s cpuSet
	for _, c := range cpus {
		s[c/64] |= 1 << (c % 64)
	}
	return &s
}

// getAffinity returns the CPUs the calling thread may run on.
func getAffinity() ([]int, error) {
	var s cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); errno != 0 {
		return nil, errno
	}
	return s.list(), nil
}

// setAffinity restricts thread tid (0 = the calling thread) to cpus.
func setAffinity(tid int, cpus []int) error {
	s := setOf(cpus)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s))); errno != 0 {
		return errno
	}
	return nil
}

// splitCPUs moves every thread of this process onto the generator's half
// of the allowed CPUs and returns both halves. Threads started later
// inherit the mask of the thread that starts them. With a single CPU both
// halves are that CPU.
func splitCPUs() (gen, server []int, err error) {
	all, err := getAffinity()
	if err != nil {
		return nil, nil, err
	}
	if len(all) < 2 {
		return all, all, nil
	}
	gen, server = all[:len(all)/2], all[len(all)/2:]
	tasks, err := filepath.Glob("/proc/self/task/*")
	if err != nil {
		return nil, nil, err
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(filepath.Base(t)); err == nil {
			// A thread that exited since the glob is no loss.
			if err := setAffinity(tid, gen); err != nil && err != syscall.ESRCH {
				return nil, nil, err
			}
		}
	}
	return gen, server, nil
}

// onCPUs runs start — which forks a child — with the calling thread
// restricted to cpus, so that the child is born there: its runtime sizes
// itself to those CPUs and no thread of it ever runs elsewhere. The thread
// then returns to the CPUs it had; it must live on, because the child's
// parent-death signal is tied to the thread that forked it.
func onCPUs(cpus []int, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	back, err := getAffinity()
	if err != nil {
		return err
	}
	if err := setAffinity(0, cpus); err != nil {
		return err
	}
	err = start()
	if rerr := setAffinity(0, back); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// On a virtual machine an idle CPU halts, and how long the host takes to
// wake it again — tens of microseconds, shifting for minutes at a time
// with what else the host runs — is added to every query that finds
// dnscache asleep: at 10000 qps, most of them. That time belongs to the
// host, not to the program measured. The generator's CPUs never halt
// because its senders spin (see socket); dnscache's get a spinner each: a
// child that does nothing but loop, in scheduling class SCHED_IDLE, which
// runs only when nothing else wants the CPU and gives way the moment
// dnscache does. Only dnscache's: an idle-class task that shares a busy CPU
// hardly ever runs, and when the kernel has preempted it inside an RCU
// read-side section nobody's synchronize_rcu() returns until it has run
// again — dnscache's socket(2), growing its descriptor table, once waited
// 20 s for a spinner starved on the generator's CPU.

// serveSpin is the spinner (-role spin): it says READY once it is in the
// idle class and loops until its stdin closes.
func serveSpin(in io.Reader, out io.Writer) error {
	runtime.LockOSThread()
	const schedIdle = 5
	var param int32 // struct sched_param: priority 0
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", errno)
	}
	fmt.Fprintln(out, "READY")
	go func() {
		io.Copy(io.Discard, in)
		os.Exit(0)
	}()
	for {
	}
}

// startSpinners puts one spinner on each of dnscache's cpus. They are
// children like any other and end with the benchmark. A host that refuses the idle class
// gets no spinners and a note: the numbers are then noisier, not wrong.
func startSpinners(self string, cpus []int) {
	for _, cpu := range cpus {
		c, err := startChild("spinner", []int{cpu}, self, "-role", "spin")
		if err == nil {
			_, err = c.expect("READY", 5*time.Second)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: note: no idle-class spinner on CPU %d, latencies will include the host's wake-up time: %v\n", cpu, err)
			return
		}
	}
}
