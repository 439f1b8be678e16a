package experiments

import (
	"fmt"
	"os"
	"time"

	"resilientdns/internal/core"
	"resilientdns/internal/metrics"
	"resilientdns/internal/persist"
	"resilientdns/internal/sim"
	"resilientdns/internal/simclock"
)

// restart is the kill-and-restart-mid-blackout experiment: the caching
// server is killed six hours into a 24-hour root+TLD blackout and
// immediately restarted. Three variants replay the same trace:
//
//   - vanilla DNS, cold restart — the baseline twice over;
//   - the combined scheme (refresh + A-LFU renewal), cold restart — the
//     defenses are configured but the crash empties the cache, so the
//     remaining attack window looks like vanilla;
//   - the combined scheme restarted warm from a persist snapshot+journal —
//     the restored cache (plus renewal credit and upstream state) holds
//     the defended failure rate through the rest of the blackout.
//
// It post-dates the frozen results_full.txt, so its row in the experiment
// table is not marked frozen and `dnssim -exp all` leaves it out.
func restart(s *Suite) plan {
	const attackDur = 24 * time.Hour
	variant := func(label string, sc sim.Scheme, crash crashMode) row {
		sp := spec(0, attackDur)
		sp.scheme, sp.crash = sc, crash
		return row{label, sp}
	}
	return grid("restart",
		fmt.Sprintf("Failed queries when the caching server is killed %v into a %v root+TLD blackout (%s)", killAfter, attackDur, s.traces[0].Label),
		"scheme",
		[]row{
			variant("DNS, cold restart", sim.Vanilla(), coldRestart),
			variant("Refresh+A-LFU, cold restart", sim.RefreshRenew(alfu5), coldRestart),
			variant("Refresh+A-LFU, warm restart (persist)", sim.RefreshRenew(alfu5), warmRestart),
		},
		[]column{
			{"attack fail % before kill", nil, func(o *outcome) string { return pct(metrics.Ratio(o.preFail, o.preQueries)) }},
			{"attack fail % after restart", nil, func(o *outcome) string {
				return pct(metrics.Ratio(o.SRFailedAttack-o.preFail, o.SRQueriesAttack-o.preQueries))
			}},
			{"replayed entries", nil, func(o *outcome) string { return fmt.Sprintf("%d", o.replayed) }},
		},
		"warm restart should hold the defended (near-zero) failure rate after the kill",
		"cold restart of the defended scheme should revert toward the vanilla rate")
}

// killAfter is how far into the blackout the crash comes.
const killAfter = 6 * time.Hour

// runRestart replays sc against a one-server fleet until killAfter into
// its blackout, crashes the server (warm restarts recover the replacement
// from a persist store written on the virtual clock), and finishes the
// trace on the replacement.
func runRestart(sc sim.Scenario, warm bool) (*outcome, error) {
	out := &outcome{}
	clk := simclock.NewVirtual(sc.Trace.Start)

	var store *persist.Store
	var dir string
	if warm {
		var err error
		dir, err = os.MkdirTemp("", "restart-exp-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		store, err = persist.Open(persist.Options{Dir: dir, Clock: clk})
		if err != nil {
			return nil, err
		}
	}
	f, err := sim.NewFleet(clk, sc, 1, func(_ int, cfg *core.Config) {
		if store != nil {
			cfg.OnCacheChange = store.Observe
		}
	})
	if err != nil {
		return nil, err
	}

	// checkpointAt stands in for the periodic snapshot schedule: the last
	// full snapshot before the crash lands at the blackout's onset, so the
	// journal alone carries the six attack hours before the kill.
	checkpointAt := sc.Attack[0].Start
	killAt := checkpointAt.Add(killAfter)
	killed, checkpointed := false, false

	for _, q := range sc.Trace.Queries {
		// Frozen order: the renewals due by the query run first, on the
		// server that is up at the time, then the checkpoint and the
		// crash due by it, each at its own instant or the last renewal's.
		f.RenewTo(q.At)
		if store != nil && !checkpointed && !q.At.Before(checkpointAt) {
			clk.AdvanceTo(checkpointAt)
			if err := store.Checkpoint(f.Servers[0]); err != nil {
				return nil, err
			}
			checkpointed = true
		}
		if !killed && !q.At.Before(killAt) {
			clk.AdvanceTo(killAt)
			killed = true
			out.preQueries, out.preFail = f.Res.SRQueriesAttack, f.Res.SRFailedAttack
			// The crash: the old process vanishes mid-journal. Deltas the
			// flush ticker had already written survive; nothing is
			// checkpointed cleanly.
			if store != nil {
				if err := store.FlushJournal(); err != nil {
					return nil, err
				}
				if err := store.Close(); err != nil {
					return nil, err
				}
				if store, err = persist.Open(persist.Options{Dir: dir, Clock: clk}); err != nil {
					return nil, err
				}
			}
			if err := f.Restart(0); err != nil {
				return nil, err
			}
			if store != nil {
				rep, err := store.Recover(f.Servers[0])
				if err != nil {
					return nil, err
				}
				out.replayed = rep.Replayed
			}
		}
		f.Resolve(q)
	}
	if store != nil {
		store.Close()
	}
	out.Results = f.Res
	return out, nil
}
