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
	"resilientdns/internal/transport"
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

// defaultFlushEvery is the journal flush interval when Options leaves it
// zero: the crash-loss window for deltas.
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
	// FlushEvery is how often Run flushes buffered journal deltas to disk
	// (default 1s). A crash loses at most this much journal.
	FlushEvery time.Duration
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
	dir        string
	clock      simclock.Clock
	flushEvery time.Duration
	counters   *Counters

	mu     sync.Mutex
	jf     *os.File // active journal (nil while buffering only)
	jbuf   []byte   // encoded deltas not yet written
	gen    uint64   // generation of the current snapshot/journal pair
	closed bool

	loaded *loadedState // parsed files from Open, consumed by Recover
}

// loadedState carries what Open found on disk.
type loadedState struct {
	snap    *snapshotData
	journal *journalData
}

// snapshotData is a decoded snapshot file.
type snapshotData struct {
	gen      uint64
	torn     bool
	unusable bool // header unreadable: treat as no snapshot
	entries  []entryRecord
	credits  map[dnswire.Name]float64
	servers  []serverRecord
	dropped  int // records that failed decoding
}

// journalOp is one decoded journal delta.
type journalOp struct {
	typ     byte
	entry   entryRecord // recEntry
	key     cache.Key   // recExtend, recEvict
	expires time.Time   // recExtend
}

// journalData is a decoded journal file.
type journalData struct {
	gen      uint64
	torn     bool
	unusable bool
	ops      []journalOp
	dropped  int
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
	if opts.FlushEvery <= 0 {
		opts.FlushEvery = defaultFlushEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &Store{dir: opts.Dir, clock: opts.Clock, flushEvery: opts.FlushEvery,
		counters: metrics.NewSet[Counters]()}
	snap, err := readSnapshot(filepath.Join(opts.Dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	journal, err := readJournal(filepath.Join(opts.Dir, journalFile))
	if err != nil {
		return nil, err
	}
	s.loaded = &loadedState{snap: snap, journal: journal}
	if snap != nil && !snap.unusable {
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
		payload, err := encodeEntry(e)
		if err != nil {
			return // unencodable entry: the next snapshot may still catch it
		}
		rec = appendFrame(nil, recEntry, payload)
	case cache.ChangeExtend:
		rec = appendFrame(nil, recExtend, encodeExtend(key, e.Expires))
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
	if snap != nil && !snap.unusable {
		rep.SnapshotFound = true
		rep.Generation = snap.gen
		rep.TornTail = snap.torn
		rep.Dropped += snap.dropped

		// Fold the journal into the snapshot's entry map, then install the
		// final state. Per-key journal order matches mutation order (the
		// hook runs under the shard lock), so "last record wins" is exact.
		state := make(map[cache.Key]entryRecord, len(snap.entries))
		for _, rec := range snap.entries {
			state[keyOf(rec)] = rec
		}
		if journal != nil && !journal.unusable {
			if journal.gen == snap.gen {
				rep.JournalReplayed = true
				rep.TornTail = rep.TornTail || journal.torn
				rep.Dropped += journal.dropped
				for _, op := range journal.ops {
					switch op.typ {
					case recEntry:
						state[keyOf(op.entry)] = op.entry
						rep.JournalOps++
					case recExtend:
						if rec, ok := state[op.key]; ok {
							rec.Expires = op.expires
							state[op.key] = rec
							rep.JournalOps++
						} else {
							rep.Dropped++
						}
					case recEvict:
						delete(state, op.key)
						rep.JournalOps++
					}
				}
			} else {
				rep.JournalSkipped = true
			}
		}

		c := cs.Cache()
		for _, rec := range state {
			if c.Restore(cache.RestoreEntry{
				RRs:      rec.RRs,
				Cred:     rec.Cred,
				Infra:    rec.Infra,
				Origin:   rec.Origin,
				OrigTTL:  rec.OrigTTL,
				Expires:  rec.Expires,
				StoredAt: rec.StoredAt,
			}) {
				rep.Replayed++
			} else {
				rep.Dropped++
			}
		}
		if len(snap.credits) > 0 {
			cs.RestoreRenewalCredits(snap.credits)
			rep.Credits = len(snap.credits)
		}
		if len(snap.servers) > 0 {
			states := make([]core.UpstreamServerState, 0, len(snap.servers))
			for _, sr := range snap.servers {
				states = append(states, core.UpstreamServerState{
					Addr:            transport.Addr(sr.Addr),
					SRTT:            sr.SRTT,
					RTTVar:          sr.RTTVar,
					Samples:         sr.Samples,
					Fails:           int(sr.Fails),
					QuarantineUntil: sr.QuarantineUntil,
				})
			}
			cs.RestoreUpstreamStates(states)
			rep.Servers = len(states)
		}
		cs.RearmRenewals()
	} else if journal != nil && !journal.unusable {
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

// keyOf returns the cache key of a decoded entry record (the decoder
// guarantees a non-empty homogeneous RRset).
func keyOf(rec entryRecord) cache.Key {
	return cache.Key{Name: rec.RRs[0].Name, Type: rec.RRs[0].Type()}
}

// Checkpoint writes a full snapshot of cs at the next generation and
// rotates the journal to match, folding all journaled deltas into the
// snapshot. Safe to run while the server is serving: deltas committed
// while the snapshot is being written land in the next-generation journal
// (and harmlessly also in the snapshot — replay overwrites with the same
// final state). A crash at any point leaves either the old consistent
// pair or the new one.
func (s *Store) Checkpoint(cs *core.CachingServer) error {
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
		payload, err := encodeEntry(e)
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
		buf = appendFrame(buf, recServer, encodeServer(serverRecord{
			Addr:            string(st.Addr),
			SRTT:            st.SRTT,
			RTTVar:          st.RTTVar,
			Samples:         st.Samples,
			Fails:           uint32(max(st.Fails, 0)),
			QuarantineUntil: st.QuarantineUntil,
		}))
		records++
	}

	if err := atomicWriteFile(filepath.Join(s.dir, snapshotFile), buf); err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	metrics.Inc(&s.counters.Snapshots)
	metrics.Add(&s.counters.SnapshotRecords, uint64(records))
	metrics.Add(&s.counters.SnapshotBytes, uint64(len(buf)))

	jf, err := createJournal(filepath.Join(s.dir, journalFile), gen, now)
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
// every FlushEvery and checkpoints every snapshotEvery. Errors are
// reported through onError (nil to ignore) and do not stop the loop — a
// transient disk error should not end persistence for the process.
func (s *Store) Run(ctx context.Context, cs *core.CachingServer, snapshotEvery time.Duration, onError func(error)) {
	report := func(err error) {
		if err != nil && onError != nil {
			onError(err)
		}
	}
	flush := time.NewTicker(s.flushEvery)
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

// readSnapshot decodes a snapshot file. A missing file returns (nil, nil);
// an unreadable header returns data flagged unusable; record-level damage
// is dropped/truncated, never fatal. Only real I/O errors propagate.
func readSnapshot(path string) (*snapshotData, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return parseSnapshotBytes(b), nil
}

// parseSnapshotBytes decodes snapshot bytes; it never fails, only
// degrades (unusable header, dropped records, torn tail).
func parseSnapshotBytes(b []byte) *snapshotData {
	h, off, err := parseHeader(b)
	if err != nil || h.Kind != kindSnapshot {
		return &snapshotData{unusable: true}
	}
	data := &snapshotData{gen: h.Generation, credits: make(map[dnswire.Name]float64)}
	frames, _, torn := readFrames(b[off:])
	data.torn = torn
	for _, f := range frames {
		switch f.typ {
		case recEntry:
			rec, err := decodeEntry(f.payload)
			if err != nil {
				data.dropped++
				continue
			}
			data.entries = append(data.entries, rec)
		case recCredit:
			zone, credit, err := decodeCredit(f.payload)
			if err != nil {
				data.dropped++
				continue
			}
			data.credits[zone] = credit
		case recServer:
			sr, err := decodeServer(f.payload)
			if err != nil {
				data.dropped++
				continue
			}
			data.servers = append(data.servers, sr)
		default:
			data.dropped++ // unknown record type: skip, keep the rest
		}
	}
	return data
}

// readJournal decodes a journal file with the same tolerance rules as
// readSnapshot.
func readJournal(path string) (*journalData, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return parseJournalBytes(b), nil
}

// parseJournalBytes decodes journal bytes with the same tolerance rules
// as parseSnapshotBytes.
func parseJournalBytes(b []byte) *journalData {
	h, off, err := parseHeader(b)
	if err != nil || h.Kind != kindJournal {
		return &journalData{unusable: true}
	}
	data := &journalData{gen: h.Generation}
	frames, _, torn := readFrames(b[off:])
	data.torn = torn
	for _, f := range frames {
		op := journalOp{typ: f.typ}
		switch f.typ {
		case recEntry:
			rec, err := decodeEntry(f.payload)
			if err != nil {
				data.dropped++
				continue
			}
			op.entry = rec
		case recExtend:
			key, t, err := decodeExtend(f.payload)
			if err != nil {
				data.dropped++
				continue
			}
			op.key, op.expires = key, t
		case recEvict:
			key, err := decodeEvict(f.payload)
			if err != nil {
				data.dropped++
				continue
			}
			op.key = key
		default:
			data.dropped++
			continue
		}
		data.ops = append(data.ops, op)
	}
	return data
}

// atomicWriteFile writes data to path via a temp file, fsync, and rename,
// then syncs the directory so the rename itself is durable.
func atomicWriteFile(path string, data []byte) error {
	tmp := path + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// createJournal writes an empty journal (header only) for gen via the
// same tmp+rename dance and returns an open handle positioned for
// appends. The handle survives the rename — it names the inode, not the
// path.
func createJournal(path string, gen uint64, now time.Time) (*os.File, error) {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := appendHeader(nil, fileHeader{Kind: kindJournal, Generation: gen, CreatedAt: now})
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
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
