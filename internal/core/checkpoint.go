package core

// Checkpoint surface: the caching server's soft state that the
// persistence subsystem (internal/persist) saves alongside the cache so a
// warm restart resumes where the killed process left off. Two components
// matter beyond the cache itself:
//
//   - renewal credit — without it a restarted server would treat every
//     zone as freshly queried and let IRRs expire mid-attack, exactly the
//     failure persistence exists to prevent;
//   - upstream selection state (per-server RTT estimates, failure counts,
//     quarantine) — without it a restart forgets which servers are dead
//     and burns full timeouts re-learning the blackout.
//
// The in-flight table, negative cache, and parentSeen map are deliberately
// not checkpointed: in-flight work dies with the process, negative answers
// are short-lived by design, and parentSeen (kept only while
// ParentRecheckInterval is on) restarting empty only means the next
// resolution re-confirms delegations with the parent — all safe defaults.

import (
	"resilientdns/internal/dnswire"
)

// RenewalCredits returns a copy of the per-zone renewal credit.
func (cs *CachingServer) RenewalCredits() map[dnswire.Name]float64 {
	cs.renewMu.Lock()
	defer cs.renewMu.Unlock()
	out := make(map[dnswire.Name]float64, len(cs.credits))
	for z, c := range cs.credits {
		out[z] = c
	}
	return out
}

// RestoreRenewalCredits merges checkpointed credit into the scheduler,
// overwriting any credit already accumulated for the same zones. Non-
// positive credit is dropped rather than stored: it buys no renewals and
// would only bloat the map.
func (cs *CachingServer) RestoreRenewalCredits(credits map[dnswire.Name]float64) {
	cs.renewMu.Lock()
	defer cs.renewMu.Unlock()
	for z, c := range credits {
		if z == "" || c <= 0 {
			continue
		}
		cs.credits[z] = c
	}
}

// RearmRenewals schedules a renewal check for every cached infrastructure
// NS entry. Recovery calls it after restoring the cache: entries restored
// by Restore bypass Put, so nothing else would enqueue their pre-expiry
// checks and restored credit would never be spent. Harmless to call twice
// — the scheduler keeps at most one queue entry per zone.
func (cs *CachingServer) RearmRenewals() {
	if cs.cfg.Renewal == nil {
		return
	}
	for _, ei := range cs.cache.InfraExpiries() {
		cs.scheduleRenewal(ei.Zone, ei.Expires)
	}
}

// UpstreamStates returns a copy of the per-server selection state, sorted
// by address. (UpstreamServerState is resolve.ServerState; see config.go.)
func (cs *CachingServer) UpstreamStates() []UpstreamServerState {
	return cs.resolver.ExportServerStates()
}

// RestoreUpstreamStates rebuilds per-server selection state from a
// checkpoint, overwriting state already accumulated for the same servers.
func (cs *CachingServer) RestoreUpstreamStates(states []UpstreamServerState) {
	cs.resolver.RestoreServerStates(states)
}
