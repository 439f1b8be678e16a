package resolve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// UpstreamConfig tunes the upstream robustness layer shared by every
// fetch path: RTT-aware server selection, per-attempt timeouts derived
// from SRTT + 4·RTTVAR, failure quarantine with exponential backoff, and
// a bounded retry budget per resolution. The zero value selects the
// defaults below.
type UpstreamConfig struct {
	// MinTimeout / MaxTimeout clamp the per-attempt timeout derived from
	// a server's SRTT + 4·RTTVAR. Defaults: 200ms and 3s.
	MinTimeout time.Duration
	MaxTimeout time.Duration

	// Quarantine is the base sit-out after a failed exchange; it doubles
	// per consecutive failure to the same server up to one minute
	// (exponential backoff), and one success clears it. Quarantined
	// servers are deprioritized, not excluded: they sort after every
	// healthy server and are still attempted when all healthier choices
	// fail, so a set whose every member is quarantined keeps being tried.
	// 0 means the default 5s; negative disables quarantine entirely.
	Quarantine time.Duration

	// RetryBudget bounds the total upstream attempts one resolution (or
	// one renewal refetch, or one prefetch) may spend across its whole
	// referral ladder, so a blacked-out hierarchy cannot make a single
	// query burn every failover path. 0 means unbounded — the library default, and
	// what the trace-driven simulator uses so attack-window query counts
	// stay comparable across schemes; cmd/dnscache sets a real bound.
	RetryBudget int
}

// Upstream-layer defaults.
const (
	defaultMinTimeout    = 200 * time.Millisecond
	defaultMaxTimeout    = 3 * time.Second
	defaultQuarantine    = 5 * time.Second
	defaultMaxQuarantine = time.Minute // caps the quarantine backoff
	// maxBackoffShift caps the quarantine doubling exponent so the
	// shifted duration cannot overflow.
	maxBackoffShift = 10
)

// errBudgetExhausted reports that a resolution spent its whole upstream
// retry budget without completing.
var errBudgetExhausted = errors.New("resolve: upstream retry budget exhausted")

// ServerState is one authoritative server's selection state: the RFC 6298
// RTT estimate (SRTT and RTTVar over Samples observations; no history
// while Samples is 0), the consecutive-failure count, and the quarantine
// release time. upstream.servers holds these records themselves, and the
// persistence subsystem checkpoints them so a restarted server resumes
// with the upstream knowledge it had.
type ServerState struct {
	Addr            transport.Addr
	SRTT            time.Duration
	RTTVar          time.Duration
	Samples         uint64
	Fails           int
	QuarantineUntil time.Time
}

// observe folds one round-trip sample into the estimate per RFC 6298
// (Jacobson/Karels): the first sample sets SRTT = R and RTTVAR = R/2;
// each later one folds in as RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|, then
// SRTT = 7/8·SRTT + 1/8·R. A negative sample counts as zero.
func (s *ServerState) observe(sample time.Duration) {
	if sample < 0 {
		sample = 0
	}
	if s.Samples == 0 {
		s.SRTT = sample
		s.RTTVar = sample / 2
	} else {
		diff := s.SRTT - sample
		if diff < 0 {
			diff = -diff
		}
		s.RTTVar = (3*s.RTTVar + diff) / 4
		s.SRTT = (7*s.SRTT + sample) / 8
	}
	s.Samples++
}

// upstream is the shared selection state. All methods take time as an
// argument rather than reading a clock, so the trace-driven simulator
// drives it off the virtual clock and stays deterministic: ordering uses
// stable sorts keyed only on observed state and falls back to the input
// order on ties, never on map iteration order.
type upstream struct {
	cfg UpstreamConfig

	mu      sync.Mutex
	servers map[serverKey]*ServerState
}

// serverKey keys the servers table: a server's record under its transport
// address, and under each address record (ip) that mapped to it a record
// of that address alone, so that mapping finds the address made once
// instead of making it again. Export and every selection lookup read the
// transport-address keys alone.
type serverKey struct {
	addr transport.Addr
	ip   netip.Addr
}

// newUpstream applies defaults and builds the selection state.
func newUpstream(cfg UpstreamConfig) *upstream {
	if cfg.MinTimeout <= 0 {
		cfg.MinTimeout = defaultMinTimeout
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = defaultMaxTimeout
	}
	if cfg.MaxTimeout < cfg.MinTimeout {
		cfg.MaxTimeout = cfg.MinTimeout
	}
	switch {
	case cfg.Quarantine == 0:
		cfg.Quarantine = defaultQuarantine
	case cfg.Quarantine < 0:
		cfg.Quarantine = 0 // disabled
	}
	return &upstream{cfg: cfg, servers: make(map[serverKey]*ServerState)}
}

// mapAddr is ip's transport address: the one kept under ip, or, the
// first time ip is seen, mapper's, which is kept for the next time.
func (u *upstream) mapAddr(ip netip.Addr, mapper func(netip.Addr) transport.Addr) transport.Addr {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := u.servers[serverKey{ip: ip}]
	if st == nil {
		st = &ServerState{Addr: mapper(ip)}
		u.servers[serverKey{ip: ip}] = st
	}
	return st.Addr
}

// order appends servers to dst in the order they should be attempted at
// time now and returns the result: healthy servers first, ascending by estimated RTT (servers with no
// history estimate at MaxTimeout, so proven-fast servers lead and unknown
// ones are probed only after them), then quarantined servers ascending by
// release time. skipped counts the quarantined servers that were
// deprioritized behind at least one healthy server — when every server is
// quarantined there is nothing healthier to prefer, so nothing counts as
// skipped and the set is simply tried in release order.
func (u *upstream) order(dst, servers []transport.Addr, now time.Time) (ordered []transport.Addr, skipped int) {
	type candidate struct {
		addr  transport.Addr
		est   time.Duration
		quar  bool
		until time.Time
	}
	// A zone's server list is short: its candidates live on the stack.
	var small [16]candidate
	cands := small[:0]
	u.mu.Lock()
	for _, addr := range servers {
		c := candidate{addr: addr, est: u.cfg.MaxTimeout}
		if st := u.servers[serverKey{addr: addr}]; st != nil {
			if st.Samples > 0 {
				c.est = st.SRTT
			}
			if st.QuarantineUntil.After(now) {
				c.quar = true
				c.until = st.QuarantineUntil
			}
		}
		cands = append(cands, c)
	}
	u.mu.Unlock()

	// A stable sort without reflection: ties keep the input order.
	slices.SortStableFunc(cands, func(a, b candidate) int {
		switch {
		case a.quar != b.quar:
			if a.quar {
				return 1
			}
			return -1
		case a.quar:
			return a.until.Compare(b.until)
		}
		return cmp.Compare(a.est, b.est)
	})
	ordered = dst
	healthy := 0
	for _, c := range cands {
		ordered = append(ordered, c.addr)
		if !c.quar {
			healthy++
		}
	}
	if healthy > 0 {
		skipped = len(cands) - healthy
	}
	return ordered, skipped
}

// attemptTimeout returns the per-attempt timeout for addr: the server's
// SRTT + 4·RTTVAR clamped into [MinTimeout, MaxTimeout], or MaxTimeout
// when no RTT history exists (first contact keeps the transport's
// traditional patience; only proven-fast servers earn short deadlines).
// It is never zero: every upstream attempt carries a deadline.
func (u *upstream) attemptTimeout(addr transport.Addr) time.Duration {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := u.servers[serverKey{addr: addr}]
	if st == nil || st.Samples == 0 {
		return u.cfg.MaxTimeout
	}
	t := st.SRTT + 4*st.RTTVar
	if t < u.cfg.MinTimeout {
		t = u.cfg.MinTimeout
	}
	if t > u.cfg.MaxTimeout {
		t = u.cfg.MaxTimeout
	}
	return t
}

// observeSuccess folds a successful exchange's RTT into the server's
// estimate and clears its failure state.
func (u *upstream) observeSuccess(addr transport.Addr, rtt time.Duration) {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := u.state(addr)
	st.observe(rtt)
	st.Fails = 0
	st.QuarantineUntil = time.Time{}
}

// observeFailure records a failed exchange at time now: the consecutive
// failure count grows and, when quarantine is enabled, the server sits
// out for Quarantine·2^(fails−1) capped at defaultMaxQuarantine. The failure
// also folds into the RTT estimate as a sample at the full MaxTimeout
// (the time the attempt burned), so selection keeps preferring servers
// that actually answer even after the quarantine window lapses.
func (u *upstream) observeFailure(addr transport.Addr, now time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := u.state(addr)
	st.observe(u.cfg.MaxTimeout)
	st.Fails++
	if u.cfg.Quarantine <= 0 {
		return
	}
	shift := st.Fails - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	d := u.cfg.Quarantine << shift
	if d > defaultMaxQuarantine {
		// A base above the cap still sits out for the base.
		d = max(defaultMaxQuarantine, u.cfg.Quarantine)
	}
	st.QuarantineUntil = now.Add(d)
}

// state returns addr's record, creating it on first contact. The caller
// holds u.mu.
func (u *upstream) state(addr transport.Addr) *ServerState {
	st := u.servers[serverKey{addr: addr}]
	if st == nil {
		st = &ServerState{Addr: addr}
		u.servers[serverKey{addr: addr}] = st
	}
	return st
}

// export returns a copy of every server's selection state, sorted by
// address so checkpoints are deterministic.
func (u *upstream) export() []ServerState {
	u.mu.Lock()
	out := make([]ServerState, 0, len(u.servers))
	for k, st := range u.servers {
		if k.addr != "" {
			out = append(out, *st)
		}
	}
	u.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// restore rebuilds per-server state from a checkpoint, overwriting any
// state already accumulated for the same addresses. A checkpoint is
// outside input, so every record is repaired on the way in: one with no
// address is skipped, a negative failure count or duration clamps to
// zero, and Samples == 0 means no RTT history whatever the durations say.
func (u *upstream) restore(states []ServerState) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, s := range states {
		if s.Addr == "" {
			continue
		}
		if s.Fails < 0 {
			s.Fails = 0
		}
		if s.Samples == 0 || s.SRTT < 0 {
			s.SRTT = 0
		}
		if s.Samples == 0 || s.RTTVar < 0 {
			s.RTTVar = 0
		}
		u.servers[serverKey{addr: s.Addr}] = &s
	}
}

// quarantined reports whether addr is sitting out at time now (tests and
// diagnostics).
func (u *upstream) quarantined(addr transport.Addr, now time.Time) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	st := u.servers[serverKey{addr: addr}]
	return st != nil && st.QuarantineUntil.After(now)
}

// Work is what one piece of work may still spend upstream, and the
// context that work runs under. Resolver.Begin starts every one: a
// coalesced flight's (core's flight embeds it and is the flight's
// context), a renewal refetch's and a background prefetch's. Everything
// the work does draws from it:
//   - attempts: upstream attempts across the whole referral ladder, nested
//     glue and DNSSEC fetches included (-retry-budget; unbounded at 0);
//   - glue: maxGlueFetches out-of-bailiwick name-server address fetches.
//     Unlike maxGlueDepth, which bounds nesting, it bounds total fanout:
//     every sibling NS name chased at every level draws from the same
//     pool, which stops an NXNSAttack-style delegation from multiplying
//     upstream traffic;
//   - until: the work's end in time, its kind's workTime after Begin on
//     the server's clock. No attempt starts at or after it, and none is
//     given a deadline past it; it is the only end in time work stops on.
//
// left is what is left of until at the work's last clock reading, which
// is taken at Begin and once after each exchange (step): the work's now,
// until − left, is the time every cache operation, deadline and check
// between two exchanges takes. Kept as a duration, it costs a word where
// a time.Time takes three. Work runs on one goroutine.
//
// A Work answers Value for its own key and takes everything else —
// deadline, cancellation, other values — from the context it was
// started under; with none, it is a root context that is never done.
// until stays off Deadline: it is on the server's clock, virtual in the
// simulator, and a deadline is wall-clock time. A stage called under a
// context that carries no Work (a test calling it directly) runs
// unbounded.
type Work struct {
	parent   context.Context
	until    time.Time
	left     time.Duration
	attempts atomic.Int64
	glue     atomic.Int64
}

type workKey struct{}

// Begin starts w as one piece of kind's work — KindResolve, KindRenewal
// or KindPrefetch — under parent (nil: w is its own root context): the
// retry budget's attempts, maxGlueFetches glue fetches, and the kind's
// workTime from now.
func (r *Resolver) Begin(w *Work, parent context.Context, kind Kind) {
	attempts := int64(r.cfg.Upstream.RetryBudget)
	if attempts <= 0 {
		attempts = math.MaxInt64
	}
	w.parent, w.until, w.left = parent, r.cfg.Clock.Now().Add(workTime[kind]), workTime[kind]
	w.attempts.Store(attempts)
	w.glue.Store(maxGlueFetches)
}

func (w *Work) Deadline() (time.Time, bool) {
	if w.parent == nil {
		return time.Time{}, false
	}
	return w.parent.Deadline()
}

func (w *Work) Done() <-chan struct{} {
	if w.parent == nil {
		return nil
	}
	return w.parent.Done()
}

func (w *Work) Err() error {
	if w.parent == nil {
		return nil
	}
	return w.parent.Err()
}

// Value implements context.Context: w under its key, the parent's values
// under every other.
func (w *Work) Value(key any) any {
	if _, ok := key.(workKey); ok {
		return w
	}
	if w.parent == nil {
		return nil
	}
	return w.parent.Value(key)
}

// workOf returns the Work ctx runs under, nil when it has none.
func workOf(ctx context.Context) *Work {
	w, _ := ctx.Value(workKey{}).(*Work)
	return w
}

// now is w's time; for work that is nil (a stage called under no Work),
// it reads clk. until − left gives back the reading exactly: a virtual
// time's wall clock, a real one's monotonic clock, which is what the
// cache's stamps and every comparison read.
func (w *Work) now(clk simclock.Clock) time.Time {
	if w == nil {
		return clk.Now()
	}
	return w.until.Add(-w.left)
}

// step moves w's now to now, the clock's reading after an exchange.
func (w *Work) step(now time.Time) {
	if w != nil {
		w.left = w.until.Sub(now)
	}
}

// takeAttempt consumes one upstream attempt from w, reporting false when
// none is left. Work that is nil allows every draw; so do takeGlue, over
// and clip.
func (w *Work) takeAttempt() bool {
	return w == nil || w.attempts.Add(-1) >= 0
}

// takeGlue consumes one glue fetch from w, reporting false when none is
// left.
func (w *Work) takeGlue() bool {
	return w == nil || w.glue.Add(-1) >= 0
}

// over reports whether w has ended in time at now.
func (w *Work) over(now time.Time) bool {
	return w != nil && !now.Before(w.until)
}

// clip cuts d to what is left of w's time at now.
func (w *Work) clip(now time.Time, d time.Duration) time.Duration {
	if w == nil {
		return d
	}
	return min(d, w.until.Sub(now))
}

// errPastCeiling reports that work reached its end in time. It wraps
// context.DeadlineExceeded, what the same work reported when the ceiling
// was a context deadline.
var errPastCeiling = fmt.Errorf("resolve: retry budget's time is up: %w", context.DeadlineExceeded)

// halted reports why work under ctx must start nothing more at now: ctx's
// own error, or its Work's end in time. Flight cancellation is observed
// here, at attempt and referral boundaries; an attempt under way runs to
// its own deadline.
func halted(ctx context.Context, now time.Time) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workOf(ctx).over(now) {
		return errPastCeiling
	}
	return nil
}
