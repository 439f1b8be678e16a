package core

import (
	"resilientdns/internal/metrics"
	"resilientdns/internal/resolve"
)

// Stats counts a caching server's activity, as a metrics counter set.
// Counters are cumulative; subtract two snapshots to measure an interval.
// The server's live set bumps only the frontend fields declared here
// (queries in, coalescing, renewal cycles); Stats() fills the embedded
// upstream half from the resolve pipeline.
type Stats struct {
	// QueriesIn counts Resolve calls (stub-resolver queries).
	QueriesIn uint64
	// Resolved counts Resolve calls that produced an answer, including
	// authoritative negative answers.
	Resolved uint64
	// Failed counts Resolve calls that failed (servers unreachable).
	Failed uint64
	// CacheAnswered counts Resolve calls served entirely from cache.
	CacheAnswered uint64
	// PackedAnswers counts the cache answers sent as a packed reply kept
	// on the cache entry, the query never unpacked (a subset of
	// CacheAnswered).
	PackedAnswers uint64
	// Coalesced counts Resolve calls that joined another in-flight
	// resolution of the same (name, type) instead of resolving
	// themselves.
	Coalesced uint64

	// RenewalQueries counts refetches issued by the renewal scheduler.
	RenewalQueries uint64
	// RenewalFailed counts renewal refetches that failed entirely.
	RenewalFailed uint64
	// Renewals counts successful renew cycles.
	Renewals uint64
	// RenewalDeferred counts due renewals skipped because another fleet
	// member owns the zone's renewal duty (mesh owner-renewal dedup).
	RenewalDeferred uint64
	// RenewalLate counts renewal refetches issued at or after the zone's
	// NS entry had expired, by the clock when the refetch started: the
	// sweep ran too late for renewal to keep the IRRs alive.
	RenewalLate uint64
	// RenewalLostCredit counts due renewals that found the zone's NS
	// entry already gone from the cache while the zone still held a
	// credit: the credit the zone earned bought nothing, and its IRRs
	// must be learned again from the parent.
	RenewalLostCredit uint64
	// RenewalDelayUS sums, in µs, how long after its due instant each
	// renewal refetch started; over RenewalQueries it is the mean delay.
	RenewalDelayUS uint64
	// RenewalDelayMaxUS is the upper bound of the log₂ bucket that holds
	// the longest such delay over the server's life: read when the
	// snapshot is taken, not a counter.
	RenewalDelayMaxUS uint64
	// RenewalQueue is the renewal queue's depth when the snapshot is
	// taken: a gauge, not a counter.
	RenewalQueue uint64

	// The upstream-facing half is the resolve pipeline's own set; its
	// counters (QueriesOut, Retries, …) read as fields of Stats and
	// encode as flat JSON keys beside the ones above.
	resolve.Counters
}

// Stats returns a snapshot of the counters: the frontend half from the
// server's own live set, the embedded half from the resolver's.
func (cs *CachingServer) Stats() Stats {
	st := metrics.Snapshot(cs.stats)
	st.Counters = cs.resolver.Counters()
	st.RenewalDelayMaxUS = uint64(cs.renewDelay.Snapshot().Quantile(1).Microseconds())
	cs.renewMu.Lock()
	st.RenewalQueue = uint64(cs.renew.Len())
	cs.renewMu.Unlock()
	return st
}
