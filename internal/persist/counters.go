package persist

// Counters counts the persistence subsystem's activity, as a metrics
// counter set: snapshots written, journal growth between snapshots, and
// recovery outcomes.
type Counters struct {
	// Snapshots counts completed snapshot writes; SnapshotRecords and
	// SnapshotBytes accumulate their record counts and on-disk sizes.
	Snapshots       uint64 `json:"snapshots"`
	SnapshotRecords uint64 `json:"snapshot_records"`
	SnapshotBytes   uint64 `json:"snapshot_bytes"`
	// JournalRecords / JournalBytes accumulate appended journal deltas
	// (across rotations; compaction does not reset them).
	JournalRecords uint64 `json:"journal_records"`
	JournalBytes   uint64 `json:"journal_bytes"`
	// Recoveries counts startup replays; ReplayedRecords the entries a
	// recovery restored live (or stale); DroppedRecords the records a
	// recovery discarded (expired, corrupt, truncated, or superseded).
	Recoveries      uint64 `json:"recoveries"`
	ReplayedRecords uint64 `json:"replayed_records"`
	DroppedRecords  uint64 `json:"dropped_records"`
	// RecoveryNanos accumulates wall-clock recovery latency.
	RecoveryNanos uint64 `json:"recovery_nanos"`
}
