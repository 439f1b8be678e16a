package resolve

// Counters are the pipeline's cumulative event counts, a metrics counter
// set. They cover the upstream-facing half of the server's statistics;
// the owning server keeps its own frontend counters (queries in,
// coalesced, renewals) and embeds this set beside them.
type Counters struct {
	// QueriesOut counts queries sent to authoritative servers, renewal
	// refetches included; QueriesOutFailed the ones that timed out or
	// were unreachable.
	QueriesOut       uint64
	QueriesOutFailed uint64

	// Referrals counts referral responses followed.
	Referrals uint64
	// StaleAnswers counts expired records served under ServeStale.
	StaleAnswers uint64
	// PrefetchQueries counts early refreshes issued by Prefetch.
	PrefetchQueries uint64

	// Retries counts upstream failover attempts beyond the first within
	// a single fetch.
	Retries uint64
	// QuarantineSkips counts quarantined servers deprioritized behind a
	// healthy one during selection.
	QuarantineSkips uint64
	// BudgetExhausted counts failover loops cut short by the retry
	// budget.
	BudgetExhausted uint64

	// GlueFetches counts out-of-bailiwick name-server address
	// resolutions charged against the per-query glue budget.
	GlueFetches uint64
	// GlueBudgetExhausted counts glue resolutions skipped because the
	// query's aggregate budget ran out (the NXNS-style fanout bound).
	GlueBudgetExhausted uint64

	// PeerFetches counts mesh peer-fetch fallbacks attempted after
	// local resolution failed; PeerFetchAnswered the ones a peer's
	// cache could answer.
	PeerFetches       uint64
	PeerFetchAnswered uint64
}
