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
	"resilientdns/internal/workload"
)

// Restart is the kill-and-restart-mid-blackout experiment: the caching
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
func (s *Suite) Restart() (*Table, error) {
	const attackDur = 24 * time.Hour
	killAt := s.cfg.Epoch.Add(6*24*time.Hour + 6*time.Hour) // six hours into the blackout
	tr := s.traces[0]
	vanilla := sim.Vanilla()
	combined := sim.RefreshRenew(core.ALFU{C: 5, MaxDays: core.DefaultLFUMax(5)})

	type variant struct {
		label  string
		scheme sim.Scheme
		warm   bool
	}
	variants := []variant{
		{"DNS, cold restart", vanilla, false},
		{"Refresh+A-LFU, cold restart", combined, false},
		{"Refresh+A-LFU, warm restart (persist)", combined, true},
	}

	t := &Table{
		ID:      "restart",
		Title:   fmt.Sprintf("Failed queries when the caching server is killed %v into a %v root+TLD blackout (%s)", 6*time.Hour, attackDur, tr.Label),
		Columns: []string{"scheme", "attack fail % before kill", "attack fail % after restart", "replayed entries"},
		Notes: []string{
			"warm restart should hold the defended (near-zero) failure rate after the kill",
			"cold restart of the defended scheme should revert toward the vanilla rate",
		},
	}
	for _, v := range variants {
		out, err := s.runRestart(tr, v.scheme, attackDur, killAt, v.warm)
		if err != nil {
			return nil, fmt.Errorf("experiments: restart: %w", err)
		}
		t.Rows = append(t.Rows, []string{
			v.label,
			pct(metrics.Ratio(out.preFail, out.preQueries)),
			pct(metrics.Ratio(out.postFail, out.postQueries)),
			fmt.Sprintf("%d", out.replayed),
		})
	}
	return t, nil
}

// restartOutcome splits the attack-window stub-resolver counts at the kill
// instant.
type restartOutcome struct {
	preQueries, preFail   uint64
	postQueries, postFail uint64
	replayed              int
}

// runRestart replays tr against a one-server fleet until killAt, crashes
// the server (warm restarts recover the replacement from a persist store
// written on the virtual clock), and finishes the trace on the replacement.
func (s *Suite) runRestart(tr workload.Trace, scheme sim.Scheme, attackDur time.Duration, killAt time.Time, warm bool) (restartOutcome, error) {
	var out restartOutcome
	clk := simclock.NewVirtual(tr.Start)

	var store *persist.Store
	var dir string
	if warm {
		var err error
		dir, err = os.MkdirTemp("", "restart-exp-")
		if err != nil {
			return out, err
		}
		defer os.RemoveAll(dir)
		store, err = persist.Open(persist.Options{Dir: dir, Clock: clk})
		if err != nil {
			return out, err
		}
	}
	f, err := sim.NewFleet(clk, s.scenario(s.baseTree, tr, scheme, attackDur), 1, func(_ int, cfg *core.Config) {
		if store != nil {
			cfg.OnCacheChange = store.Observe
		}
	})
	if err != nil {
		return out, err
	}

	killed := false
	// checkpointAt stands in for the periodic snapshot schedule: the last
	// full snapshot before the crash lands at the blackout's onset, so the
	// journal alone carries the six attack hours before the kill.
	checkpointAt := s.cfg.Epoch.Add(6 * 24 * time.Hour)
	checkpointed := false

	for _, q := range tr.Queries {
		// Frozen order: the renewals due by the query run first, on the
		// server that is up at the time, then the checkpoint and the
		// crash due by it, each at its own instant or the last renewal's.
		f.RenewTo(q.At)
		if store != nil && !checkpointed && !q.At.Before(checkpointAt) {
			clk.AdvanceTo(checkpointAt)
			if err := store.Checkpoint(f.Servers[0]); err != nil {
				return out, err
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
					return out, err
				}
				if err := store.Close(); err != nil {
					return out, err
				}
				if store, err = persist.Open(persist.Options{Dir: dir, Clock: clk}); err != nil {
					return out, err
				}
			}
			if err := f.Restart(0); err != nil {
				return out, err
			}
			if store != nil {
				rep, err := store.Recover(f.Servers[0])
				if err != nil {
					return out, err
				}
				out.replayed = rep.Replayed
			}
		}
		f.Resolve(q)
	}
	if store != nil {
		store.Close()
	}
	out.postQueries = f.Res.SRQueriesAttack - out.preQueries
	out.postFail = f.Res.SRFailedAttack - out.preFail
	return out, nil
}
