package persist

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
)

// File names inside the store directory.
const (
	snapshotFile = "snapshot.dat"
	journalFile  = "journal.dat"
	tmpSuffix    = ".tmp"
)

// maxJournalBuffer bounds the in-memory delta buffer when the journal
// file cannot be written (disk failure, or the window while a snapshot is
// in flight grows pathological). Overflowing it drops the journal entirely
// — a partial journal would replay as silently wrong state, while
// "snapshot only" is merely a wider (but honest) loss window.
const maxJournalBuffer = 64 << 20

// defaultFlushEvery is how often Run flushes buffered journal deltas to
// disk: the crash-loss window for deltas.
const defaultFlushEvery = time.Second

// Options parameterises a Store.
type Options struct {
	// Dir is the store directory, created if absent. Required.
	Dir string
	// Clock stamps file headers and is the simulator's hook for keeping
	// persisted timestamps on the virtual timeline. Defaults to the wall
	// clock. It must be the same clock the cached entries' timestamps come
	// from.
	Clock simclock.Clock
}

// Store is the on-disk persistence for one caching server: a snapshot +
// journal pair in a directory. Wire it up in this order:
//
//	st, _ := persist.Open(persist.Options{Dir: dir})
//	cs, _ := core.NewCachingServer(core.Config{..., OnCacheChange: st.Observe})
//	rep, _ := st.Recover(cs)          // replay snapshot+journal, checkpoint
//	go st.Run(ctx, cs, 5*time.Minute, nil)
//	...
//	st.Checkpoint(cs)                 // final snapshot on shutdown
//	st.Close()
//
// Observe is safe to hand to the cache before Recover runs: deltas only
// buffer in memory until the first checkpoint creates a journal.
//
// On the simulator's virtual clock the second line is sim.NewFleet's
// per-server hook, func(_ int, cfg *core.Config) { cfg.OnCacheChange =
// st.Observe }, with Options.Clock the fleet's clock. Fleet.Restart runs
// the hook again for the replacement server, so reopen the store first,
// then Restart, then Recover (the restart experiment does exactly this).
type Store struct {
	dir      string
	clock    simclock.Clock
	counters *Counters

	// ckMu serialises Checkpoint against itself (Run's periodic one and a
	// shutdown one can overlap). It is taken before mu and never by Observe
	// or FlushJournal, so the query path does not wait on a snapshot.
	ckMu sync.Mutex

	mu     sync.Mutex
	jf     *os.File // active journal (nil while buffering only)
	jbuf   []byte   // encoded deltas not yet written
	gen    uint64   // generation of the current snapshot/journal pair
	closed bool

	loaded *loadedState // parsed files from Open, consumed by Recover
}

// loadedState carries what Open found on disk; a file that was absent or
// had no usable header is nil.
type loadedState struct {
	snap, journal *fileData
}

// Open reads (but does not yet apply) the store directory's snapshot and
// journal. Call Recover to replay them into a server; until the first
// Checkpoint, Observe only buffers deltas in memory.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("persist: Options.Dir is required")
	}
	if opts.Clock == nil {
		opts.Clock = simclock.Real{}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{dir: opts.Dir, clock: opts.Clock, counters: metrics.NewSet[Counters]()}
	snap, err := readFile(filepath.Join(opts.Dir, snapshotFile), kindSnapshot)
	if err != nil {
		return nil, err
	}
	journal, err := readFile(filepath.Join(opts.Dir, journalFile), kindJournal)
	if err != nil {
		return nil, err
	}
	s.loaded = &loadedState{snap: snap, journal: journal}
	if snap != nil {
		s.gen = snap.gen
	}
	return s, nil
}

// Counters returns a snapshot of the persistence metrics.
func (s *Store) Counters() Counters { return metrics.Snapshot(s.counters) }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Observe is the cache.ChangeFunc feeding the journal: it encodes the
// delta and appends it to the in-memory buffer. It runs under a cache
// shard lock, so it does no I/O — FlushJournal (driven by Run) writes the
// buffer out.
func (s *Store) Observe(op cache.ChangeOp, key cache.Key, e *cache.Entry) {
	var rec []byte
	switch op {
	case cache.ChangePut:
		payload, err := encodeEntry(e, s.clock.Now())
		if err != nil {
			return // unencodable entry: the next snapshot may still catch it
		}
		rec = appendFrame(nil, recEntry, payload)
	case cache.ChangeExtend:
		rec = appendFrame(nil, recExtend, encodeExtend(key, wallExpiry(e, s.clock.Now())))
	case cache.ChangeEvict:
		rec = appendFrame(nil, recEvict, appendKey(nil, key))
	default:
		return
	}
	s.mu.Lock()
	if !s.closed {
		s.jbuf = append(s.jbuf, rec...)
		metrics.Inc(&s.counters.JournalRecords)
		metrics.Add(&s.counters.JournalBytes, uint64(len(rec)))
		if len(s.jbuf) > maxJournalBuffer {
			s.poisonJournalLocked()
		}
	}
	s.mu.Unlock()
}

// poisonJournalLocked abandons journaling until the next checkpoint: the
// buffer overflowed, and a journal missing deltas must not exist on disk
// (it would replay as wrong state). The snapshot alone stays consistent.
func (s *Store) poisonJournalLocked() {
	s.jbuf = nil
	if s.jf != nil {
		s.jf.Close()
		s.jf = nil
	}
	os.Remove(filepath.Join(s.dir, journalFile))
}

// FlushJournal writes buffered deltas to the journal file and syncs it.
// Deltas buffered while no journal exists (before the first checkpoint,
// or after a poisoned journal) stay in memory.
func (s *Store) FlushJournal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if s.jf == nil || len(s.jbuf) == 0 {
		return nil
	}
	if _, err := s.jf.Write(s.jbuf); err != nil {
		s.poisonJournalLocked()
		return fmt.Errorf("persist: journal write: %w", err)
	}
	s.jbuf = s.jbuf[:0]
	if err := s.jf.Sync(); err != nil {
		s.poisonJournalLocked()
		return fmt.Errorf("persist: journal sync: %w", err)
	}
	return nil
}

// Close flushes the journal and releases the file handle. It does not
// write a final snapshot — call Checkpoint first for that.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.flushLocked()
	if s.jf != nil {
		s.jf.Close()
		s.jf = nil
	}
	s.closed = true
	return err
}

// RecoveryReport describes what a Recover replayed.
type RecoveryReport struct {
	// SnapshotFound reports that a usable snapshot header was read;
	// Generation is its generation.
	SnapshotFound bool
	Generation    uint64
	// JournalReplayed / JournalSkipped: a journal matching the snapshot's
	// generation was applied, or a present journal was ignored
	// (generation mismatch after a crash between snapshot and rotation,
	// or an unreadable header).
	JournalReplayed bool
	JournalSkipped  bool
	// TornTail reports that the snapshot or journal ended mid-record —
	// the expected crash signature; replay stopped at the last good
	// record and continued.
	TornTail bool
	// Replayed counts entries restored into the cache (live or stale).
	// Dropped counts records discarded: corrupt, expired beyond the stale
	// window, or re-clamped to nothing. JournalOps counts applied deltas.
	Replayed   int
	Dropped    int
	JournalOps int
	// Credits / Servers count restored renewal-credit zones and upstream
	// server states.
	Credits int
	Servers int
	// Elapsed is the wall-clock recovery latency.
	Elapsed time.Duration
}

// String renders the one-line summary the server prints at startup.
func (r RecoveryReport) String() string {
	if !r.SnapshotFound {
		return "persist: no snapshot found, starting cold"
	}
	journal := "journal=none"
	switch {
	case r.JournalReplayed:
		journal = fmt.Sprintf("journal=%d ops", r.JournalOps)
	case r.JournalSkipped:
		journal = "journal=skipped (stale generation)"
	}
	return fmt.Sprintf("persist: recovered %d entries (gen %d, %s, dropped %d, torn=%v) in %v",
		r.Replayed, r.Generation, journal, r.Dropped, r.TornTail, r.Elapsed)
}

// Recover replays the snapshot and journal loaded by Open into cs: cache
// entries (re-clamped by the cache's own TTL policy, expired ones dropped
// or retained as stale per its KeepStale), renewal credit, and upstream
// selection state. It then re-arms the renewal scheduler and writes a
// fresh checkpoint, so the store is immediately consistent and the old
// journal is compacted away. Corruption never fails recovery — only I/O
// errors from the new checkpoint do.
func (s *Store) Recover(cs *core.CachingServer) (RecoveryReport, error) {
	start := time.Now()
	var rep RecoveryReport
	s.mu.Lock()
	loaded := s.loaded
	s.loaded = nil
	s.mu.Unlock()
	if loaded == nil {
		return rep, errors.New("persist: Recover called twice")
	}

	snap, journal := loaded.snap, loaded.journal
	if snap != nil {
		rep.SnapshotFound = true
		rep.Generation = snap.gen
		rep.TornTail = snap.torn
		rep.Dropped += snap.dropped

		// Fold the snapshot's records and then the journal's into one
		// state, then install it. Per-key journal order matches mutation
		// order (the hook runs under the shard lock), so "last record wins"
		// is exact.
		st := replayState{entries: make(map[cache.Key]cache.RestoreEntry, len(snap.recs)),
			credits: make(map[dnswire.Name]float64)}
		for _, rec := range snap.recs {
			st.apply(rec)
		}
		if journal != nil && journal.gen == snap.gen {
			rep.JournalReplayed = true
			rep.TornTail = rep.TornTail || journal.torn
			rep.Dropped += journal.dropped
			for _, rec := range journal.recs {
				if st.apply(rec) {
					rep.JournalOps++
				} else {
					rep.Dropped++
				}
			}
		} else if journal != nil {
			rep.JournalSkipped = true
		}

		c := cs.Cache()
		for _, e := range st.entries {
			if c.Restore(e) {
				rep.Replayed++
			} else {
				rep.Dropped++
			}
		}
		cs.RestoreRenewalCredits(st.credits)
		rep.Credits = len(st.credits)
		cs.RestoreUpstreamStates(st.servers)
		rep.Servers = len(st.servers)
		cs.RearmRenewals()
	} else if journal != nil {
		// A journal with no snapshot (first snapshot never completed):
		// nothing to replay it against.
		rep.JournalSkipped = true
	}

	rep.Elapsed = time.Since(start)
	metrics.Inc(&s.counters.Recoveries)
	metrics.Add(&s.counters.ReplayedRecords, uint64(rep.Replayed))
	metrics.Add(&s.counters.DroppedRecords, uint64(rep.Dropped))
	metrics.Add(&s.counters.RecoveryNanos, uint64(rep.Elapsed))

	// Checkpoint immediately: the recovered state becomes the new
	// generation and the old journal is compacted away.
	if err := s.Checkpoint(cs); err != nil {
		return rep, err
	}
	return rep, nil
}

// replayState is what recovery folds a store's records into before
// installing them in the server.
type replayState struct {
	entries map[cache.Key]cache.RestoreEntry
	credits map[dnswire.Name]float64
	servers []core.UpstreamServerState
}

// apply folds one record into the state, for a snapshot's records and a
// journal's alike. It reports false for the one record that can have
// nothing to act on: an Extend of a key the state does not hold.
func (st *replayState) apply(rec record) bool {
	switch rec.typ {
	case recEntry:
		// The decoder guarantees a non-empty RRset of one owner and type.
		rr := rec.entry.RRs[0]
		st.entries[cache.Key{Name: rr.Name, Type: rr.Type()}] = rec.entry
	case recExtend:
		e, ok := st.entries[rec.key]
		if !ok {
			return false
		}
		e.Expires = rec.expires
		st.entries[rec.key] = e
	case recEvict:
		delete(st.entries, rec.key)
	case recCredit:
		st.credits[rec.zone] = rec.credit
	case recServer:
		st.servers = append(st.servers, rec.server)
	}
	return true
}

// Checkpoint writes a full snapshot of cs at the next generation and
// rotates the journal to match, folding all journaled deltas into the
// snapshot. Safe to run while the server is serving: deltas committed
// while the snapshot is being written land in the next-generation journal
// (and harmlessly also in the snapshot — replay overwrites with the same
// final state). A crash at any point leaves either the old consistent
// pair or the new one.
func (s *Store) Checkpoint(cs *core.CachingServer) error {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("persist: store is closed")
	}
	// Retire the current journal: everything flushed so far is covered by
	// the snapshot about to be taken (those deltas are already applied to
	// the cache), and from here deltas buffer for the next generation.
	if s.jf != nil {
		s.jf.Close()
		s.jf = nil
	}
	gen := s.gen + 1
	s.mu.Unlock()

	now := s.clock.Now()
	buf := appendHeader(nil, fileHeader{Kind: kindSnapshot, Generation: gen, CreatedAt: now})
	records := 0
	cs.Cache().Range(func(e *cache.Entry) bool {
		payload, err := encodeEntry(e, now)
		if err != nil {
			return true // skip unencodable entries, keep the rest
		}
		buf = appendFrame(buf, recEntry, payload)
		records++
		return true
	})
	credits := cs.RenewalCredits()
	zones := make([]dnswire.Name, 0, len(credits))
	for z := range credits {
		zones = append(zones, z)
	}
	sort.Slice(zones, func(i, j int) bool { return zones[i] < zones[j] })
	for _, z := range zones {
		buf = appendFrame(buf, recCredit, encodeCredit(z, credits[z]))
		records++
	}
	for _, st := range cs.UpstreamStates() {
		buf = appendFrame(buf, recServer, encodeServer(st))
		records++
	}

	sf, err := atomicWriteFile(filepath.Join(s.dir, snapshotFile), buf)
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if err := sf.Close(); err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	metrics.Inc(&s.counters.Snapshots)
	metrics.Add(&s.counters.SnapshotRecords, uint64(records))
	metrics.Add(&s.counters.SnapshotBytes, uint64(len(buf)))

	// The journal handle stays open for appends.
	jf, err := atomicWriteFile(filepath.Join(s.dir, journalFile),
		appendHeader(nil, fileHeader{Kind: kindJournal, Generation: gen, CreatedAt: now}))
	if err != nil {
		// Snapshot succeeded, journal rotation failed: stay in buffer-only
		// mode (degraded but consistent — the stale journal was renamed
		// away or will be generation-skipped).
		return fmt.Errorf("persist: journal rotate: %w", err)
	}
	s.mu.Lock()
	s.gen = gen
	if s.closed {
		jf.Close()
		s.mu.Unlock()
		return nil
	}
	s.jf = jf
	err = s.flushLocked() // deltas accumulated during the snapshot
	s.mu.Unlock()
	return err
}

// Run services the store until ctx is cancelled: it flushes the journal
// every defaultFlushEvery and checkpoints every snapshotEvery. Errors are
// reported through onError (nil to ignore) and do not stop the loop — a
// transient disk error should not end persistence for the process.
func (s *Store) Run(ctx context.Context, cs *core.CachingServer, snapshotEvery time.Duration, onError func(error)) {
	report := func(err error) {
		if err != nil && onError != nil {
			onError(err)
		}
	}
	flush := time.NewTicker(defaultFlushEvery)
	defer flush.Stop()
	var snapC <-chan time.Time
	if snapshotEvery > 0 {
		snap := time.NewTicker(snapshotEvery)
		defer snap.Stop()
		snapC = snap.C
	}
	for {
		select {
		case <-ctx.Done():
			report(s.FlushJournal())
			return
		case <-flush.C:
			report(s.FlushJournal())
		case <-snapC:
			report(s.Checkpoint(cs))
		}
	}
}

// readFile decodes the store file of the given kind at path. A missing
// file and one whose header is unreadable both return (nil, nil);
// record-level damage is dropped/truncated, never fatal. Only real I/O
// errors propagate.
func readFile(path string, kind byte) (*fileData, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if data := parseFile(b, kind); !data.unusable {
		return data, nil
	}
	return nil, nil
}

// atomicWriteFile writes data to path via a temp file, fsync, and rename,
// then syncs the directory so the rename itself is durable. It returns the
// handle, still open and positioned for appends: it names the inode, not
// the path, so it survives the rename.
func atomicWriteFile(path string, data []byte) (*os.File, error) {
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	syncDir(filepath.Dir(path))
	return f, nil
}

// syncDir fsyncs a directory; best-effort (not all platforms allow it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
