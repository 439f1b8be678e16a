package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a process the benchmark started. Every child is registered so
// that killChildren can reap it whatever way the benchmark ends.
type child struct {
	name   string
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	lines  chan string // stdout, line by line; closed at EOF
	stderr tail
	exited chan struct{} // closed once the process has been waited for
}

// tail keeps the last few KiB written to it: a dead child's last words.
type tail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

var (
	childrenMu sync.Mutex
	children   = map[*child]bool{}
)

// startChild runs path with args, on cpus when given and on the
// benchmark's own CPUs otherwise. The child dies with the benchmark even
// if the benchmark is killed outright (Pdeathsig), and its stderr is kept
// for the error message should it die first.
func startChild(name string, cpus []int, path string, args ...string) (*child, error) {
	c := &child{name: name, cmd: exec.Command(path, args...), lines: make(chan string, 1024), exited: make(chan struct{})}
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stderr = &c.stderr
	var err error
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if cpus == nil {
		err = c.cmd.Start()
	} else {
		err = onCPUs(cpus, c.cmd.Start)
	}
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	childrenMu.Lock()
	children[c] = true
	childrenMu.Unlock()
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			c.lines <- sc.Text()
		}
		close(c.lines)
		c.cmd.Wait()
		childrenMu.Lock()
		delete(children, c)
		childrenMu.Unlock()
		close(c.exited)
	}()
	return c, nil
}

// killChildren kills and reaps every live child.
func killChildren() {
	childrenMu.Lock()
	var live []*child
	for c := range children {
		live = append(live, c)
	}
	childrenMu.Unlock()
	for _, c := range live {
		c.cmd.Process.Kill()
		<-c.exited
	}
}

func (c *child) dead() error {
	select {
	case <-c.exited:
		return fmt.Errorf("%s died: %s", c.name, c.stderr.String())
	default:
		return nil
	}
}

// expect returns the first stdout line starting with prefix.
func (c *child) expect(prefix string, patience time.Duration) (string, error) {
	timeout := time.After(patience)
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				<-c.exited
				return "", c.dead()
			}
			if strings.HasPrefix(line, prefix) {
				return line, nil
			}
		case <-timeout:
			return "", fmt.Errorf("%s: no %q line within %s; stderr: %s", c.name, prefix, patience, c.stderr.String())
		}
	}
}

// command sends one line to a child of ours and returns its one-line
// answer.
func (c *child) command(line string) (string, error) {
	if _, err := io.WriteString(c.stdin, line+"\n"); err != nil {
		return "", fmt.Errorf("%s: %w (%v)", c.name, err, c.dead())
	}
	return c.expect("", 5*time.Second)
}

// stop ends the child — by closing stdin for the benchmark's own roles,
// with SIGTERM for dnscache so it drains and prints its final counters —
// and returns what it still had to say on stdout.
func (c *child) stop(sig syscall.Signal) []string {
	if sig != 0 {
		c.cmd.Process.Signal(sig)
	}
	c.stdin.Close()
	var rest []string
	timeout := time.After(5 * time.Second)
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				<-c.exited
				return rest
			}
			rest = append(rest, line)
		case <-timeout:
			c.cmd.Process.Kill()
			timeout = nil
		}
	}
}

// findRoot walks up from the working directory to the repository the
// benchmark measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dnscache", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/dnscache above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildDnscache compiles the working tree's cmd/dnscache, so the binary
// measured is always the code checked out. Build products stay under
// benchmark/out/ in the repository.
func buildDnscache(root string) (string, error) {
	out := filepath.Join(root, "benchmark", "out", "bin", "dnscache")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/dnscache")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/dnscache: %w\n%s", err, msg)
	}
	return out, nil
}

// cacheProc is a running dnscache.
type cacheProc struct {
	*child
	addr     string // UDP address it serves
	debugURL string // "" unless started with -debug-addr
}

// startCache runs dnscache on cpus against the rig, on ephemeral ports.
// With debug set it gets -debug-addr, which also turns on its per-query
// tracing.
func startCache(bin string, cpus []int, rigPort int, debug bool, extra ...string) (*cacheProc, error) {
	args := []string{"-listen", "127.0.0.1:0", "-stats", "0",
		"-root", fmt.Sprintf("%s:%d", rootAddr, rigPort), "-upstream-port", strconv.Itoa(rigPort)}
	p := &cacheProc{}
	if debug {
		// dnscache prints the flag, not the bound address, so the port
		// has to be picked here.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := l.Addr().String()
		l.Close()
		args = append(args, "-debug-addr", addr)
		p.debugURL = "http://" + addr + "/debug/stats"
	}
	var err error
	if p.child, err = startChild("dnscache", cpus, bin, append(args, extra...)...); err != nil {
		return nil, err
	}
	line, err := p.expect("caching server on ", 10*time.Second)
	if err != nil {
		return nil, err
	}
	p.addr = strings.Fields(line)[3]
	if debug {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, err = p.debugStats(); err == nil {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("dnscache debug endpoint: %w", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return p, nil
}

// debugStats is the part of /debug/stats the benchmark reads.
type debugStats struct {
	Server  map[string]float64 `json:"server"`
	Cache   map[string]float64 `json:"cache"`
	Guard   map[string]float64 `json:"guard"`
	Latency map[string]struct {
		Count float64 `json:"count"`
		SumMS float64 `json:"sum_ms"`
	} `json:"latency"`
}

func (p *cacheProc) debugStats() (*debugStats, error) {
	resp, err := http.Get(p.debugURL)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var ds debugStats
	if err := json.NewDecoder(resp.Body).Decode(&ds); err != nil {
		return nil, fmt.Errorf("decode %s: %w", p.debugURL, err)
	}
	return &ds, nil
}

// procSample is what /proc says about a process at one moment.
type procSample struct {
	user, sys   float64 // CPU seconds, in clock ticks of 10 ms
	ran         float64 // CPU seconds the live threads have run, to the nanosecond; 0 if the kernel keeps no schedstat
	threads     int
	rssKiB      float64 // resident set
	hwmKiB      float64 // peak resident set
	ctxSwitches uint64  // voluntary + involuntary, all live threads
}

// cpu is the process's CPU time: the scheduler's own count where there is
// one, because a piece of a run uses a few hundredths of a second and ticks
// would quantise it by several percent.
func (s procSample) cpu() float64 {
	if s.ran > 0 {
		return s.ran
	}
	return s.user + s.sys
}

// clockTick is USER_HZ, which Linux fixes at 100 for every architecture.
const clockTick = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 18 {
		return s, fmt.Errorf("short %s/stat", dir)
	}
	ticks := func(i int) float64 { v, _ := strconv.ParseFloat(f[i], 64); return v / clockTick }
	s.user, s.sys = ticks(11), ticks(12)
	s.threads, _ = strconv.Atoi(f[17])

	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	s.rssKiB, s.hwmKiB = statusField(status, "VmRSS:"), statusField(status, "VmHWM:")
	tasks, _ := filepath.Glob(filepath.Join(dir, "task", "*"))
	for _, t := range tasks {
		if b, err := os.ReadFile(filepath.Join(t, "status")); err == nil { // a thread may exit meanwhile
			s.ctxSwitches += uint64(statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:"))
		}
		if b, err := os.ReadFile(filepath.Join(t, "schedstat")); err == nil {
			if f := strings.Fields(string(b)); len(f) > 0 {
				ns, _ := strconv.ParseFloat(f[0], 64)
				s.ran += ns / 1e9
			}
		}
	}
	return s, nil
}

func statusField(status []byte, key string) float64 {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// udpDrops returns how many datagrams the kernel has dropped at the
// receive buffers of the UDP sockets bound to the local port: replies (or
// queries) that arrived faster than the owner read them.
func udpDrops(port int) uint64 {
	b, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return 0
	}
	suffix := fmt.Sprintf(":%04X", port)
	var drops uint64
	for _, line := range strings.Split(string(b), "\n")[1:] {
		if f := strings.Fields(line); len(f) >= 13 && strings.HasSuffix(f[1], suffix) {
			n, _ := strconv.ParseUint(f[len(f)-1], 10, 64)
			drops += n
		}
	}
	return drops
}
