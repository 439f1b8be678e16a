package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// abuserIP is the abuser's source address, apart from the legit clients'
// so the guard's per-client limiter can tell them apart.
var abuserIP = netip.MustParseAddr("127.0.0.99")

// satSources is how many source addresses each sender's queries of the
// flood's saturation phase are spread over, 127.0.<3+sender>.1 and up.
// The phase is to find what dnscache can answer, not where the guard cuts
// one client off: at -client-rps 1500 these admit 375000 qps per sender,
// eight times what the seed answers.
const satSources = 250

func satAddrs(sender int) []netip.Addr {
	out := make([]netip.Addr, satSources)
	for j := range out {
		out[j] = netip.AddrFrom4([4]byte{127, 0, byte(3 + sender), byte(j + 1)})
	}
	return out
}

// bench is what every run of one invocation shares.
type bench struct {
	self     string // this binary, re-executed for the auth and echo roles
	dnscache string // the dnscache built from the working tree
	// nproc is the number of CPUs the generator has, and so the number of
	// sockets it drives; serverCPUs are the ones dnscache gets.
	nproc      int
	serverCPUs []int
	// echo is the reference every run is measured against (see round);
	// echoRaw is its bare socket, echoSrv its UDPServer.
	echo             *child
	echoRaw, echoSrv string
}

// runPlan says how long each phase of a run lasts and how it is set up.
type runPlan struct {
	seed int64
	// single, fixed and sat are the total lengths of the one-in-flight
	// service time phase, the fixed-rate phase and the saturation phase; a
	// phase of length 0 is skipped.
	single, fixed, sat time.Duration
	// rounds is how many rounds the fixed-rate and saturation phases are
	// cut into (see round).
	rounds int
	// debug starts dnscache with -debug-addr (its tracing on).
	debug bool
}

// defaultRounds is how many rounds a run's measuring time is cut into.
const defaultRounds = 12

// refShare is the part of every piece of a phase that goes to the echo
// child instead of dnscache.
const refShare = 0.25

// splitSeconds divides a run's measuring time evenly between the fixed
// rate and saturation. (The issue had 30 s and 8 s; a rate needs as long as
// a latency to repeat: dnscache's garbage collector alone makes its
// throughput swing by half every 50 ms.)
func splitSeconds(seconds float64) (fixed, sat time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return total / 2, total - total/2
}

// round is one of the rounds a run's measuring time is cut into. Each
// spends a piece of the fixed-rate phase on dnscache, then the same traffic
// shape (same rate, same senders) on the echo child's bare socket, then a
// piece of the saturation phase on dnscache and on the echo child again.
//
// The echo child is the yardstick. It runs on dnscache's CPUs, it answers
// from a table with no code of this repository in the way, and a round trip
// to it costs what the kernel, the Go runtime's poller and this host charge
// for one at this moment. On a shared host that price moves by a quarter and
// more for minutes at a time, dnscache's times move with it, and ten runs of
// the same code spread by 15-30 %. Measured seconds apart, the two move
// together: dnscache's time over the echo's repeats within a few percent.
// Those ratios are what the time-based end-to-end metrics report; the times
// themselves are printed beside them.
type round struct {
	fixed, refFixed, sat, refSat *phaseStats
	// cpu and refCPU are the CPU time of dnscache and of the echo child per
	// client query sent, in µs, over the round's fixed-rate pieces.
	cpu, refCPU float64
}

// setUps is how many times a run sets up; setup_s is the median.
const setUps = 3

// instance is one set-up: a rig, a dnscache fed by it, and the cache
// warmed.
type instance struct {
	auth  *child
	cache *cacheProc
}

// stop ends both children and returns dnscache's closing lines; calling
// it again is harmless.
func (in *instance) stop() (final []string) {
	if in.cache != nil {
		final = in.cache.stop(syscall.SIGTERM)
	}
	if in.auth != nil {
		in.auth.stop(0)
	}
	in.cache, in.auth = nil, nil
	return final
}

func (in *instance) dead() error {
	if err := in.cache.dead(); err != nil {
		return err
	}
	return in.auth.dead()
}

func (in *instance) rigCounts() (rigCounts, error) {
	var c rigCounts
	line, err := in.auth.command("counts")
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal([]byte(line), &c)
}

// startAuth re-executes the benchmark as the authoritative rig.
func (b *bench) startAuth(spec rigSpec) (*child, int, error) {
	auth, err := startChild("auth rig", nil, b.self, "-role", "auth", "-seed", strconv.FormatInt(spec.Seed, 10),
		"-tld-ttl", fmt.Sprint(spec.TLDTTL), "-sld-ttl", fmt.Sprint(spec.SLDTTL), "-data-ttl", fmt.Sprint(spec.DataTTL))
	if err != nil {
		return nil, 0, err
	}
	line, err := auth.expect("READY ", 10*time.Second)
	if err != nil {
		auth.stop(0)
		return nil, 0, err
	}
	port, err := strconv.Atoi(strings.Fields(line)[1])
	return auth, port, err
}

// setUp starts the rig and dnscache, warms the cache — every warm key is
// asked once, closed loop, and must be answered correctly — and lets both
// settle.
func (b *bench) setUp(w *workload, spec rigSpec, t traffic, debug bool) (*instance, error) {
	in := &instance{}
	var port int
	var err error
	if in.auth, port, err = b.startAuth(spec); err != nil {
		return nil, err
	}
	if in.cache, err = startCache(b.dnscache, b.serverCPUs, port, debug, w.cache.args()...); err != nil {
		in.stop()
		return nil, err
	}
	// Warm keys are dealt round-robin to one socket per generator CPU.
	stats, err := b.closedPhase(in.cache.addr, t.src, b.nproc, 4*window, time.Minute, false, nil, func(i int) func() (uint64, bool) {
		next := i
		return func() (uint64, bool) {
			if next >= len(t.warm) {
				return 0, false
			}
			key := t.warm[next]
			next += b.nproc
			return key, true
		}
	})
	if ok := stats.outcomes[outOK]; err == nil && ok != uint64(len(t.warm)) {
		err = fmt.Errorf("warm-up: %d of %d names answered correctly (%s)", ok, len(t.warm), stats.outcomeString())
	}
	if err == nil {
		err = in.dead()
	}
	if err != nil {
		in.stop()
		return nil, err
	}
	time.Sleep(settle)
	return in, nil
}

// settle is the quiet every set-up ends with: the warm-up leaves dnscache
// and the rig with a garbage collection under way, pooled buffers to hand
// back and runtime workers still busy, and none of that belongs to the
// first round. It is part of setup_s, which would otherwise be, on three
// workloads, 60 ms of starting two processes, a time that changes by a
// fifth with the host's mood from one half hour to the next.
const settle = time.Second

// together opens n senders, runs every sender's loop on a
// goroutine (and so a thread) of its own, waits for all and returns their
// merged stats; the merged span is the longest.
func together(n int, dial func(i int) (*sender, error), run func(i int, s *sender)) (*phaseStats, error) {
	senders := make([]*sender, 0, n)
	defer func() {
		for _, s := range senders {
			s.sock.Close()
		}
	}()
	for i := 0; i < n; i++ {
		s, err := dial(i)
		if err != nil {
			return nil, err
		}
		senders = append(senders, s)
	}
	var wg sync.WaitGroup
	for i, s := range senders {
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			run(i, s)
		}(i, s)
	}
	wg.Wait()
	total := &phaseStats{}
	for _, s := range senders {
		s.stats.dropped = s.sock.drops()
		total.beside(&s.stats)
	}
	return total, nil
}

// closedPhase runs n closed-loop senders, each keeping inflight queries
// in flight for dur (or until its picker runs dry). With from, sender i
// spreads its queries over the source addresses from(i).
func (b *bench) closedPhase(server string, src nameSource, n, inflight int, dur time.Duration, keep bool, from func(i int) []netip.Addr, pick func(i int) func() (uint64, bool)) (*phaseStats, error) {
	return together(n,
		func(i int) (*sender, error) {
			var addrs []netip.Addr
			if from != nil {
				addrs = from(i)
			}
			sock, err := dial(server, addrs)
			if err != nil {
				return nil, err
			}
			return newSender(sock, src, 4096, keep), nil
		},
		func(i int, s *sender) { s.runClosed(inflight, dur, pick(i)) })
}

// openPhase runs one piece of the fixed-rate phase: rate queries per
// second for dur over one socket per picker, each on a Poisson plan drawn
// from its rng — which carries on from the piece before.
func (b *bench) openPhase(server string, src nameSource, rate int, dur time.Duration, rngs []*rand.Rand, pickers []func() uint64) (*phaseStats, error) {
	plans := make([]openPlan, len(rngs))
	for i, rng := range rngs {
		plans[i] = poissonPlan(rng, int(float64(rate)/float64(len(rngs))*dur.Seconds()), dur, pickers[i])
	}
	start := time.Now().Add(10 * time.Millisecond)
	return together(len(rngs),
		func(int) (*sender, error) {
			sock, err := dial(server, nil)
			if err != nil {
				return nil, err
			}
			return newSender(sock, src, 1<<16, true), nil
		},
		func(i int, s *sender) { s.runOpen(plans[i], start, max(1, openWindow/len(rngs))) })
}

func (p *phaseStats) outcomeString() string {
	var parts []string
	for o, n := range p.outcomes {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", outcomeNames[o], n))
		}
	}
	return strings.Join(parts, " ")
}

// abuser is the flood's hostile client, running beside the measured
// phases.
type abuser struct {
	sent, replies atomic.Uint64
	resting       atomic.Bool
	stop          chan struct{}
	done          chan struct{}
	once          sync.Once
}

func startAbuser(server string, src nameSource, qps int, seed int64) (*abuser, error) {
	sock, err := dial(server, []netip.Addr{abuserIP})
	if err != nil {
		return nil, err
	}
	a := &abuser{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		defer sock.Close()
		flood(sock, src, rand.New(rand.NewSource(seed)), qps, a.stop, &a.resting, &a.sent, &a.replies)
	}()
	return a, nil
}

// halt stops the abuser and waits for it; calling it again is harmless.
func (a *abuser) halt() {
	a.once.Do(func() { close(a.stop) })
	<-a.done
}

// pause makes the abuser rest, or carry on. Safe on a nil abuser.
func (a *abuser) pause(rest bool) {
	if a != nil {
		a.resting.Store(rest)
	}
}

// counts is safe on a nil abuser: most workloads have none.
func (a *abuser) counts() (sent, replies uint64) {
	if a == nil {
		return 0, 0
	}
	return a.sent.Load(), a.replies.Load()
}

// measurement is everything one run observed, before it is boiled down
// to metrics.
type measurement struct {
	w       *workload
	plan    runPlan
	senders int     // one per generator CPU
	setupS  float64 // first child start until the cache is warm, median of setUps

	// rounds are the measured phases as they were run; fixed, sat and
	// their echo counterparts are the same merged over the rounds.
	rounds             []round
	single, fixed, sat *phaseStats
	refFixed, refSat   *phaseStats
	// probe is the after-the-phases check of which zones still resolve.
	probe *phaseStats

	// Sums over the pieces of the fixed-rate phase that went to dnscache.
	serverUser, serverSys float64 // dnscache CPU seconds, split by clock ticks
	serverCPU             float64 // dnscache CPU seconds
	ctxSwitches           uint64
	rigFixed              rigCounts
	abuseSent, abuseReply uint64
	// satBusy is the share of its CPUs dnscache used over its pieces of
	// the saturation phase.
	satBusy float64
	// rssKiB is dnscache's resident set at the end of each set-up.
	rssKiB []float64

	last procSample // dnscache at the end of the run
	// serverDrops counts queries the kernel dropped at dnscache's socket.
	serverDrops uint64
	debug       [2]*debugStats // /debug/stats before and after the measured phases
	final       []string       // dnscache's closing stdout lines
}

// clientQueries is every query sent to dnscache in the fixed-rate phase,
// the abuser's included.
func (m *measurement) clientQueries() uint64 {
	return m.fixed.sent + m.fixed.darkSent + m.abuseSent
}

// measure sets a workload up, runs its phases against dnscache and
// returns what it saw.
func (b *bench) measure(w *workload, plan runPlan) (*measurement, error) {
	m := &measurement{w: w, plan: plan, senders: b.nproc}
	spec := w.ttl
	spec.Seed = plan.seed
	t := w.traffic(newRig(spec).slds)

	// Set up setUps times over and report the median: one set-up is a
	// second of starting processes, the noisiest second of a run. The
	// phases run against the last.
	var in *instance
	var took []float64
	for i := 0; i < setUps; i++ {
		if in != nil {
			in.stop()
		}
		begin := time.Now()
		var err error
		if in, err = b.setUp(w, spec, t, plan.debug); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took = append(took, time.Since(begin).Seconds())
		p, err := readProc(in.cache.cmd.Process.Pid)
		if err != nil {
			in.stop()
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		m.rssKiB = append(m.rssKiB, p.rssKiB)
	}
	defer in.stop()
	m.setupS = median(took)
	if err := b.runPhases(m, in, t); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return m, nil
}

func (b *bench) runPhases(m *measurement, in *instance, t traffic) error {
	w, plan, server, pid := m.w, m.plan, in.cache.addr, in.cache.cmd.Process.Pid
	if w.dark != "" {
		if _, err := in.auth.command("dark " + w.dark); err != nil {
			return err
		}
	}
	var abuse *abuser
	if w.abuseQPS > 0 {
		var err error
		if abuse, err = startAbuser(server, t.abuse, w.abuseQPS, plan.seed); err != nil {
			return err
		}
		defer abuse.halt()
	}
	var err error
	if plan.debug {
		if m.debug[0], err = in.cache.debugStats(); err != nil {
			return err
		}
	}

	if plan.single > 0 {
		rng := rand.New(rand.NewSource(plan.seed + 7))
		m.single, err = b.closedPhase(server, t.src, 1, 1, plan.single, true, nil, func(int) func() (uint64, bool) { return forever(t.sat(rng)) })
		if err != nil {
			return err
		}
	}

	// One legit client address beside the abuser's; otherwise a socket per
	// generator CPU. Each socket's random stream runs on through the
	// rounds, so a run's queries do not depend on how it is cut up.
	fixedRNG := make([]*rand.Rand, b.nproc)
	if abuse != nil {
		fixedRNG = fixedRNG[:1]
	}
	fixedPick := make([]func() uint64, len(fixedRNG))
	for i := range fixedRNG {
		fixedRNG[i] = rand.New(rand.NewSource(plan.seed*1000 + int64(i)))
		fixedPick[i] = t.fixed(fixedRNG[i])
	}
	// Saturation: one sender per generator CPU × 16 in flight, under the
	// flood spread over many source addresses (see satSources).
	var from func(int) []netip.Addr
	if w.cache.clientRPS > 0 {
		from = satAddrs
	}
	satPick := make([]func() (uint64, bool), b.nproc)
	for i := range satPick {
		satPick[i] = forever(t.sat(rand.New(rand.NewSource(plan.seed*1000 + 500 + int64(i)))))
	}

	// The echo child gets the same shape of traffic: as many sockets, the
	// rate of all clients together, names it knows.
	echoNames := echoNames()
	refRNG := make([]*rand.Rand, len(fixedRNG))
	refPick := make([]func() uint64, len(fixedRNG))
	for i := range refRNG {
		rng := rand.New(rand.NewSource(plan.seed*1000 + 900 + int64(i)))
		refRNG[i], refPick[i] = rng, func() uint64 { return uint64(rng.Intn(len(echoNames.names))) }
	}
	refSatPick := func(i int) func() (uint64, bool) { return forever(refPick[i%len(refPick)]) }
	echoPid := b.echo.cmd.Process.Pid

	m.fixed, m.sat, m.refFixed, m.refSat = &phaseStats{}, &phaseStats{}, &phaseStats{}, &phaseStats{}
	piece := func(total time.Duration, share float64) time.Duration {
		return time.Duration(float64(total) / float64(plan.rounds) * share)
	}
	// All rounds of the fixed-rate phase come first, then those of the
	// saturation phase: up to the end of the first, every run has sent
	// dnscache the same queries at the same times, whatever the host let
	// the saturation phase get through.
	m.rounds = make([]round, plan.rounds)
	for r := range m.rounds {
		m.rounds[r] = round{fixed: &phaseStats{}, refFixed: &phaseStats{}, sat: &phaseStats{}, refSat: &phaseStats{}}
	}
	for r := 0; r < plan.rounds && plan.fixed > 0; r++ {
		rd := &m.rounds[r]
		before, err := readProc(pid)
		if err != nil {
			return err
		}
		rigBefore, err := in.rigCounts()
		if err != nil {
			return err
		}
		abuseSent, abuseReply := abuse.counts()
		if rd.fixed, err = b.openPhase(server, t.src, w.rate, piece(plan.fixed, 1-refShare), fixedRNG, fixedPick); err != nil {
			return err
		}
		sent, replies := abuse.counts()
		rigAfter, err := in.rigCounts()
		if err != nil {
			return err
		}
		after, err := readProc(pid)
		if err != nil {
			return err
		}
		m.abuseSent, m.abuseReply = m.abuseSent+sent-abuseSent, m.abuseReply+replies-abuseReply
		m.rigFixed = m.rigFixed.add(rigAfter.sub(rigBefore))
		m.serverUser, m.serverSys = m.serverUser+after.user-before.user, m.serverSys+after.sys-before.sys
		m.serverCPU += after.cpu() - before.cpu()
		m.ctxSwitches += after.ctxSwitches - before.ctxSwitches
		rd.cpu = (after.cpu() - before.cpu()) * 1e6 / float64(rd.fixed.sent+rd.fixed.darkSent+sent-abuseSent)
		m.fixed.appendPiece(rd.fixed)

		// The abuser rests while the yardstick is read: the echo child
		// shares dnscache's CPUs.
		abuse.pause(true)
		echoBefore, err := readProc(echoPid)
		if err != nil {
			return err
		}
		if rd.refFixed, err = b.openPhase(b.echoRaw, echoNames, w.rate+w.abuseQPS, piece(plan.fixed, refShare), refRNG, refPick); err != nil {
			return err
		}
		echoAfter, err := readProc(echoPid)
		if err != nil {
			return err
		}
		abuse.pause(false)
		rd.refCPU = (echoAfter.cpu() - echoBefore.cpu()) * 1e6 / float64(rd.refFixed.sent)
		m.refFixed.appendPiece(rd.refFixed)
	}
	var satCPU float64
	for r := 0; r < plan.rounds && plan.sat > 0; r++ {
		rd := &m.rounds[r]
		before, err := readProc(pid)
		if err != nil {
			return err
		}
		if rd.sat, err = b.closedPhase(server, t.src, b.nproc, window, piece(plan.sat, 1-refShare), true, from, func(i int) func() (uint64, bool) { return satPick[i] }); err != nil {
			return err
		}
		after, err := readProc(pid)
		if err != nil {
			return err
		}
		satCPU += after.cpu() - before.cpu()
		m.sat.appendPiece(rd.sat)
		abuse.pause(true)
		if rd.refSat, err = b.closedPhase(b.echoRaw, echoNames, b.nproc, window, piece(plan.sat, refShare), true, nil, refSatPick); err != nil {
			return err
		}
		abuse.pause(false)
		m.refSat.appendPiece(rd.refSat)
	}
	if m.sat.span > 0 {
		m.satBusy = satCPU / (m.sat.span.Seconds() * float64(len(b.serverCPUs)))
	}

	// The probe: one query per probed zone, each answered or timed out.
	next := 0
	m.probe, err = b.closedPhase(server, t.src, 1, window, 2*clientTimeout, false, nil, func(int) func() (uint64, bool) {
		return func() (uint64, bool) {
			if next == len(t.probe) {
				return 0, false
			}
			next++
			return t.probe[next-1], true
		}
	})
	if err != nil {
		return err
	}
	if plan.debug {
		if m.debug[1], err = in.cache.debugStats(); err != nil {
			return err
		}
	}
	if err := in.dead(); err != nil {
		return err
	}
	if m.last, err = readProc(pid); err != nil {
		return err
	}
	if ap, err := netip.ParseAddrPort(server); err == nil {
		m.serverDrops = udpDrops(int(ap.Port()))
	}
	if abuse != nil {
		abuse.halt()
	}
	m.final = in.stop()
	return nil
}

// newBench builds dnscache from the working tree, finds this binary and
// splits the CPUs between generator and server.
func newBench() (*bench, string, error) {
	root, err := findRoot()
	if err != nil {
		return nil, "", err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	bin, err := buildDnscache(root)
	if err != nil {
		return nil, "", err
	}
	gen, server, err := splitCPUs()
	if err != nil {
		return nil, "", fmt.Errorf("pinning CPUs: %w", err)
	}
	// Every sender's goroutine spins on a thread of its own and holds a
	// processor all the while: one each for the senders and the abuser, and
	// some to spare for everything else.
	runtime.GOMAXPROCS(len(gen) + 4)
	// The generator's garbage collector shares the generator's CPUs with
	// the senders, and every cycle makes sends late; its heap is small
	// (names, plans, samples), so let it grow instead.
	debug.SetGCPercent(400)
	startSpinners(self, server)
	b := &bench{self: self, dnscache: bin, nproc: len(gen), serverCPUs: server}
	if b.echo, err = startChild("echo", server, self, "-role", "echo"); err != nil {
		return nil, "", err
	}
	line, err := b.echo.expect("READY ", 10*time.Second)
	if err != nil {
		return nil, "", err
	}
	f := strings.Fields(line)
	b.echoRaw, b.echoSrv = f[1], f[2]
	return b, root, nil
}
