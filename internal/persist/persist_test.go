package persist

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/authserver"
	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/zone"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func rrA(name string, ttl uint32, ip string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.A{Addr: netip.MustParseAddr(ip)},
	}
}

// entryOf is the cache entry re describes, as a cache whose clock reads
// at restores it: how a test comes by a *cache.Entry to encode.
func entryOf(t testing.TB, re cache.RestoreEntry, at time.Time) *cache.Entry {
	t.Helper()
	c := cache.New(cache.Config{Clock: simclock.NewVirtual(at), MaxTTL: -1})
	if !c.Restore(re) {
		t.Fatalf("Restore kept nothing of %+v", re)
	}
	return c.Peek(re.RRs[0].Name, re.RRs[0].Type())
}

func rrNS(name string, ttl uint32, host string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.NS{Host: dnswire.MustName(host)},
	}
}

// fixture wires a tiny hierarchy (root → example.) over a virtual clock so
// persistence tests can run real resolutions through a caching server.
type fixture struct {
	t   *testing.T
	clk *simclock.Virtual
	net *simnet.Network
	dir string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clk := simclock.NewVirtual(epoch)
	net := simnet.New(clk)
	net.RTT = 0
	net.Timeout = 0

	root := zone.New(dnswire.Root)
	root.MustAdd(rrNS(".", 3600000, "a.root-servers.net."))
	root.MustAdd(rrA("a.root-servers.net.", 3600000, "10.0.0.1"))
	root.MustAdd(rrNS("example.", 86400, "ns1.example."))
	root.MustAdd(rrA("ns1.example.", 86400, "10.0.1.1"))

	ex := zone.New(dnswire.MustName("example."))
	ex.MustAdd(rrNS("example.", 86400, "ns1.example."))
	ex.MustAdd(rrA("ns1.example.", 86400, "10.0.1.1"))
	ex.MustAdd(rrA("www.example.", 300, "10.9.9.9"))
	ex.MustAdd(rrA("short.example.", 60, "10.9.9.10"))
	ex.MustAdd(rrA("long.example.", 864000, "10.9.9.11"))

	net.Register(&simnet.Host{Addr: "10.0.0.1", Zone: dnswire.Root, Handler: authserver.New(root)})
	net.Register(&simnet.Host{Addr: "10.0.1.1", Zone: dnswire.MustName("example."), Handler: authserver.New(ex)})
	return &fixture{t: t, clk: clk, net: net, dir: t.TempDir()}
}

// open creates a store on the fixture's directory and clock.
func (f *fixture) open() *Store {
	f.t.Helper()
	st, err := Open(Options{Dir: f.dir, Clock: f.clk})
	if err != nil {
		f.t.Fatalf("Open: %v", err)
	}
	return st
}

// server builds a caching server journaling into st (nil for none).
func (f *fixture) server(st *Store, cfg core.Config) *core.CachingServer {
	f.t.Helper()
	cfg.Transport = f.net
	cfg.Clock = f.clk
	cfg.RootHints = []core.ServerRef{{Host: dnswire.MustName("a.root-servers.net."), Addr: "10.0.0.1"}}
	if st != nil {
		cfg.OnCacheChange = st.Observe
	}
	cs, err := core.NewCachingServer(cfg)
	if err != nil {
		f.t.Fatalf("NewCachingServer: %v", err)
	}
	return cs
}

func (f *fixture) resolve(cs *core.CachingServer, name string) {
	f.t.Helper()
	if _, err := cs.Resolve(context.Background(), dnswire.MustName(name), dnswire.TypeA); err != nil {
		f.t.Fatalf("Resolve(%s): %v", name, err)
	}
}

// entriesOf snapshots a cache's contents keyed for comparison.
func entriesOf(c *cache.Cache) map[cache.Key]*cache.Entry {
	out := make(map[cache.Key]*cache.Entry)
	c.Range(func(e *cache.Entry) bool {
		out[e.Key()] = e
		return true
	})
	return out
}

// requireSameEntries asserts the restored cache holds exactly the original
// entries with identical RRsets, TTL clamps, and expiry instants.
func requireSameEntries(t *testing.T, want, got map[cache.Key]*cache.Entry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("restored %d entries, want %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("restored cache is missing %v", key)
		}
		if len(g.RRs) != len(w.RRs) {
			t.Fatalf("%v: restored %d RRs, want %d", key, len(g.RRs), len(w.RRs))
		}
		for i := range w.RRs {
			if g.RRs[i].String() != w.RRs[i].String() {
				t.Errorf("%v RR[%d] = %s, want %s", key, i, g.RRs[i], w.RRs[i])
			}
		}
		if g.OrigTTL() != w.OrigTTL() || !g.Expires().Equal(w.Expires()) {
			t.Errorf("%v: ttl/expiry = (%v, %v), want (%v, %v)",
				key, g.OrigTTL(), g.Expires(), w.OrigTTL(), w.Expires())
		}
		if g.Cred() != w.Cred() || g.Infra() != w.Infra() {
			t.Errorf("%v: cred/infra = (%v, %v), want (%v, %v)", key, g.Cred(), g.Infra(), w.Cred(), w.Infra())
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	cs := f.server(st, core.Config{RefreshTTL: true})
	f.resolve(cs, "www.example.")
	f.resolve(cs, "short.example.")
	f.resolve(cs, "long.example.")
	want := entriesOf(cs.Cache())
	if len(want) == 0 {
		t.Fatal("fixture resolved nothing into the cache")
	}
	if err := st.Checkpoint(cs); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st.Close()

	st2 := f.open()
	cs2 := f.server(st2, core.Config{RefreshTTL: true})
	rep, err := st2.Recover(cs2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.SnapshotFound || rep.Replayed != len(want) || rep.Dropped != 0 {
		t.Fatalf("report = %+v, want %d replayed, 0 dropped", rep, len(want))
	}
	requireSameEntries(t, want, entriesOf(cs2.Cache()))
	// The restored cache answers without going upstream.
	before := cs2.Stats().QueriesOut
	f.resolve(cs2, "www.example.")
	if sent := cs2.Stats().QueriesOut - before; sent != 0 {
		t.Errorf("restored cache still sent %d upstream queries", sent)
	}
	st2.Close()
}

func TestJournalCarriesDeltasPastSnapshot(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	cs := f.server(st, core.Config{})
	f.resolve(cs, "www.example.")
	if err := st.Checkpoint(cs); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-snapshot activity lands only in the journal.
	f.resolve(cs, "short.example.")
	cs.Cache().Evict(dnswire.MustName("www.example."), dnswire.TypeA)
	want := entriesOf(cs.Cache())
	if err := st.FlushJournal(); err != nil {
		t.Fatalf("FlushJournal: %v", err)
	}
	st.Close() // crash: no final checkpoint

	st2 := f.open()
	cs2 := f.server(st2, core.Config{})
	rep, err := st2.Recover(cs2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.JournalReplayed {
		t.Fatalf("journal was not replayed: %+v", rep)
	}
	requireSameEntries(t, want, entriesOf(cs2.Cache()))
	if got := cs2.Cache().Peek(dnswire.MustName("www.example."), dnswire.TypeA); got != nil {
		t.Error("evicted entry resurrected by recovery")
	}
	st2.Close()
}

func TestTornJournalTailIsTolerated(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	cs := f.server(st, core.Config{})
	f.resolve(cs, "www.example.")
	if err := st.Checkpoint(cs); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	f.resolve(cs, "short.example.")
	if err := st.FlushJournal(); err != nil {
		t.Fatalf("FlushJournal: %v", err)
	}
	st.Close()

	// Tear the journal mid-record, as a crash during a write would.
	jpath := filepath.Join(f.dir, journalFile)
	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) <= headerLen+3 {
		t.Fatalf("journal too small to tear: %d bytes", len(b))
	}
	if err := os.WriteFile(jpath, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := f.open()
	cs2 := f.server(st2, core.Config{})
	rep, err := st2.Recover(cs2)
	if err != nil {
		t.Fatalf("Recover after torn tail: %v", err)
	}
	if !rep.TornTail {
		t.Errorf("torn tail not reported: %+v", rep)
	}
	// The snapshot's entries must all survive regardless of the tear.
	if got := cs2.Cache().Peek(dnswire.MustName("www.example."), dnswire.TypeA); got == nil {
		t.Error("snapshot entry lost to a journal tear")
	}
	st2.Close()
}

// TestTornTailEveryPrefix is the crash-injection sweep: recovery must
// succeed (never panic, never error) from every possible truncation point
// of both files.
func TestTornTailEveryPrefix(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	cs := f.server(st, core.Config{})
	f.resolve(cs, "www.example.")
	if err := st.Checkpoint(cs); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	f.resolve(cs, "short.example.")
	if err := st.FlushJournal(); err != nil {
		t.Fatalf("FlushJournal: %v", err)
	}
	st.Close()

	snap, err := os.ReadFile(filepath.Join(f.dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(f.dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		file string
		data []byte
	}{
		{"snapshot", snapshotFile, snap},
		{"journal", journalFile, journal},
	} {
		for cut := 0; cut <= len(tc.data); cut += 7 {
			dir := t.TempDir()
			full := map[string][]byte{snapshotFile: snap, journalFile: journal}
			full[tc.file] = tc.data[:cut]
			for name, b := range full {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st2, err := Open(Options{Dir: dir, Clock: f.clk})
			if err != nil {
				t.Fatalf("%s cut at %d: Open: %v", tc.name, cut, err)
			}
			cs2 := f.server(nil, core.Config{})
			if _, err := st2.Recover(cs2); err != nil {
				t.Fatalf("%s cut at %d: Recover: %v", tc.name, cut, err)
			}
			st2.Close()
		}
	}
}

func TestStaleJournalGenerationIsSkipped(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	cs := f.server(st, core.Config{})
	f.resolve(cs, "www.example.")
	if err := st.Checkpoint(cs); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	f.resolve(cs, "short.example.")
	if err := st.FlushJournal(); err != nil {
		t.Fatalf("FlushJournal: %v", err)
	}
	st.Close()

	// Forge the crash window between snapshot write and journal rotation:
	// rewrite the journal's generation so it no longer matches.
	jpath := filepath.Join(f.dir, journalFile)
	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	forged := appendHeader(nil, fileHeader{Kind: kindJournal, Generation: 999, CreatedAt: f.clk.Now()})
	forged = append(forged, b[headerLen:]...)
	if err := os.WriteFile(jpath, forged, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := f.open()
	cs2 := f.server(st2, core.Config{})
	rep, err := st2.Recover(cs2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.JournalSkipped || rep.JournalReplayed {
		t.Fatalf("mismatched journal not skipped: %+v", rep)
	}
	// Only the snapshot's entry is present.
	if cs2.Cache().Peek(dnswire.MustName("www.example."), dnswire.TypeA) == nil {
		t.Error("snapshot entry missing")
	}
	if cs2.Cache().Peek(dnswire.MustName("short.example."), dnswire.TypeA) != nil {
		t.Error("stale journal delta replayed despite generation mismatch")
	}
	st2.Close()
}

func TestEntriesExpiringBetweenSnapshotAndReload(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	cs := f.server(st, core.Config{})
	f.resolve(cs, "short.example.") // 60s answer TTL
	f.resolve(cs, "long.example.")  // 10-day answer TTL (clamped to 7)
	if err := st.Checkpoint(cs); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st.Close()

	f.clk.Advance(10 * time.Minute) // short.example.'s answer dies in between

	// Recover compacts (the post-recovery checkpoint drops dead entries),
	// so keep a pristine copy for the serve-stale variant below.
	staleDir := t.TempDir()
	for _, name := range []string{snapshotFile, journalFile} {
		b, err := os.ReadFile(filepath.Join(f.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(staleDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2 := f.open()
	cs2 := f.server(st2, core.Config{})
	rep, err := st2.Recover(cs2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if cs2.Cache().Peek(dnswire.MustName("short.example."), dnswire.TypeA) != nil {
		t.Error("entry that expired between snapshot and reload was restored")
	}
	if cs2.Cache().Peek(dnswire.MustName("long.example."), dnswire.TypeA) == nil {
		t.Error("still-live entry was dropped")
	}
	if rep.Dropped == 0 {
		t.Errorf("expired entries not counted as dropped: %+v", rep)
	}
	st2.Close()

	// With stale retention on, the same dead entry is restorable for
	// GetStale service instead.
	st3, err := Open(Options{Dir: staleDir, Clock: f.clk})
	if err != nil {
		t.Fatal(err)
	}
	cs3 := f.server(st3, core.Config{ServeStale: time.Hour})
	if _, err := st3.Recover(cs3); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	name := dnswire.MustName("short.example.")
	if cs3.Cache().Get(name, dnswire.TypeA) != nil {
		t.Error("expired entry served as live")
	}
	if cs3.Cache().GetStale(name, dnswire.TypeA) == nil {
		t.Error("expired-within-window entry not servable as stale after restore")
	}
	st3.Close()
}

func TestRecoveryRestoresRenewalAndUpstreamState(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	policy := core.ALFU{C: 5, MaxDays: core.DefaultLFUMax(5)}
	cs := f.server(st, core.Config{RefreshTTL: true, Renewal: policy})
	f.resolve(cs, "www.example.")
	f.resolve(cs, "www.example.")
	credits := cs.RenewalCredits()
	if len(credits) == 0 {
		t.Fatal("no renewal credit accrued")
	}
	servers := cs.UpstreamStates()
	if len(servers) == 0 {
		t.Fatal("no upstream state accrued")
	}
	if err := st.Checkpoint(cs); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st.Close()

	st2 := f.open()
	cs2 := f.server(st2, core.Config{RefreshTTL: true, Renewal: policy})
	rep, err := st2.Recover(cs2)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.Credits != len(credits) || rep.Servers != len(servers) {
		t.Fatalf("report = %+v, want %d credits, %d servers", rep, len(credits), len(servers))
	}
	got := cs2.RenewalCredits()
	for z, c := range credits {
		if got[z] != c {
			t.Errorf("credit[%s] = %v, want %v", z, got[z], c)
		}
	}
	gotServers := cs2.UpstreamStates()
	if len(gotServers) != len(servers) {
		t.Fatalf("restored %d server states, want %d", len(gotServers), len(servers))
	}
	for i := range servers {
		if gotServers[i] != servers[i] {
			t.Errorf("server[%d] = %+v, want %+v", i, gotServers[i], servers[i])
		}
	}
	// RearmRenewals must have queued checks for the restored IRRs.
	if _, ok := cs2.NextRenewalDue(); !ok {
		t.Error("no renewal scheduled after recovery")
	}
	st2.Close()
}

func TestRecoverOnEmptyDirStartsCold(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	cs := f.server(st, core.Config{})
	rep, err := st.Recover(cs)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rep.SnapshotFound || rep.Replayed != 0 {
		t.Fatalf("cold start replayed state: %+v", rep)
	}
	// The initial checkpoint must have created a valid (empty) pair.
	f.resolve(cs, "www.example.")
	if err := st.FlushJournal(); err != nil {
		t.Fatalf("FlushJournal: %v", err)
	}
	st.Close()
	st2 := f.open()
	cs2 := f.server(st2, core.Config{})
	rep2, err := st2.Recover(cs2)
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if !rep2.JournalReplayed || rep2.Replayed == 0 {
		t.Fatalf("journal-only recovery failed: %+v", rep2)
	}
	st2.Close()
}

func TestRecoverTwiceFails(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	cs := f.server(st, core.Config{})
	if _, err := st.Recover(cs); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := st.Recover(cs); err == nil {
		t.Fatal("second Recover did not fail")
	}
	st.Close()
}

// TestEntryOriginRoundTrip pins the peer-origin flag at the codec level:
// peer-learned entries keep their provenance across encode/decode, and a
// pre-mesh record (flag bit absent) decodes as upstream-learned.
func TestEntryOriginRoundTrip(t *testing.T) {
	base := cache.RestoreEntry{
		RRs:     []dnswire.RR{rrNS("peer.example.", 3600, "ns1.peer.example.")},
		Cred:    cache.CredAnswer,
		Infra:   true,
		OrigTTL: time.Hour,
		Expires: epoch.Add(time.Hour),
	}
	for _, origin := range []cache.Origin{cache.OriginUpstream, cache.OriginPeer} {
		re := base
		re.Origin = origin
		b, err := encodeEntry(entryOf(t, re, epoch), epoch)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeEntry(b)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Origin != origin {
			t.Errorf("origin %v round-tripped as %v", origin, rec.Origin)
		}
		if !rec.Infra {
			t.Errorf("origin %v: infra flag lost", origin)
		}
	}

	// A record written before the mesh existed never has flag bit 2;
	// clearing it must yield OriginUpstream, not garbage.
	re := base
	re.Origin = cache.OriginPeer
	b, err := encodeEntry(entryOf(t, re, epoch), epoch)
	if err != nil {
		t.Fatal(err)
	}
	b[1] &^= 2
	rec, err := decodeEntry(b)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Origin != cache.OriginUpstream {
		t.Errorf("pre-mesh record decoded with origin %v, want OriginUpstream", rec.Origin)
	}
}

// TestPeerOriginSurvivesRecovery runs the full store path: an entry the
// mesh ingested from a peer is journaled, recovered after a restart, and
// still marked peer-learned in the rebuilt cache.
func TestPeerOriginSurvivesRecovery(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	cs := f.server(st, core.Config{})
	zone := dnswire.MustName("gossiped.example.")
	cs.Cache().PutOrigin(
		[]dnswire.RR{rrNS("gossiped.example.", 3600, "ns1.gossiped.example.")},
		cache.CredAnswer, true, cache.OriginPeer)
	if err := st.Checkpoint(cs); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st.Close()

	st2 := f.open()
	cs2 := f.server(st2, core.Config{})
	if _, err := st2.Recover(cs2); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer st2.Close()
	e := cs2.Cache().Peek(zone, dnswire.TypeNS)
	if e == nil {
		t.Fatal("peer-learned entry did not survive recovery")
	}
	if e.Origin() != cache.OriginPeer {
		t.Errorf("recovered entry origin = %v, want OriginPeer", e.Origin())
	}
	if !e.Infra() {
		t.Error("recovered entry lost its infra flag")
	}
}

// TestForeignKindRecordsAreDropped pins what happens to a well-formed,
// CRC-valid record in the wrong kind of file — a journal delta in a
// snapshot, a soft-state record in a journal: it is counted in Dropped and
// never applied, exactly as an unknown record type is.
func TestForeignKindRecordsAreDropped(t *testing.T) {
	f := newFixture(t)
	key := cache.Key{Name: dnswire.MustName("www.example."), Type: dnswire.TypeA}
	expires := epoch.Add(5 * time.Minute)
	entry, err := encodeEntry(entryOf(t, cache.RestoreEntry{
		RRs:     []dnswire.RR{rrA("www.example.", 300, "10.9.9.9")},
		Cred:    cache.CredAnswer,
		OrigTTL: 5 * time.Minute,
		Expires: expires,
	}, epoch), epoch)
	if err != nil {
		t.Fatal(err)
	}
	zone := dnswire.MustName("example.")
	snap := appendHeader(nil, fileHeader{Kind: kindSnapshot, Generation: 4, CreatedAt: epoch})
	snap = appendFrame(snap, recEntry, entry)
	snap = appendFrame(snap, recExtend, encodeExtend(key, epoch.Add(time.Hour)))
	journal := appendHeader(nil, fileHeader{Kind: kindJournal, Generation: 4, CreatedAt: epoch})
	journal = appendFrame(journal, recCredit, encodeCredit(zone, 5))
	for name, b := range map[string][]byte{snapshotFile: snap, journalFile: journal} {
		if err := os.WriteFile(filepath.Join(f.dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st := f.open()
	defer st.Close()
	cs := f.server(st, core.Config{Renewal: core.ALFU{C: 5, MaxDays: core.DefaultLFUMax(5)}})
	rep, err := st.Recover(cs)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.JournalReplayed || rep.Replayed != 1 || rep.Dropped != 2 || rep.JournalOps != 0 || rep.Credits != 0 || rep.TornTail {
		t.Fatalf("report = %+v, want the journal replayed, 1 entry, 2 dropped, no ops, no credits, no tear", rep)
	}
	e := cs.Cache().Peek(key.Name, key.Type)
	if e == nil {
		t.Fatal("the snapshot's entry was not restored")
	}
	if !e.Expires().Equal(expires) {
		t.Errorf("a recExtend inside a snapshot was applied: expires %v, want %v", e.Expires(), expires)
	}
	if c, ok := cs.RenewalCredits()[zone]; ok {
		t.Errorf("a recCredit inside a journal was applied: credit[%s] = %v", zone, c)
	}
}

// TestConcurrentCheckpointsSerialise runs Checkpoint against itself, as
// Run's periodic checkpoint and a shutdown checkpoint can: every call must
// succeed, N successful checkpoints must advance the generation by exactly
// N, and the pair left on disk must recover whole.
func TestConcurrentCheckpointsSerialise(t *testing.T) {
	f := newFixture(t)
	st := f.open()
	cs := f.server(st, core.Config{})
	const entries = 5000
	for i := 0; i < entries; i++ {
		cs.Cache().Put([]dnswire.RR{rrA(fmt.Sprintf("h%d.example.", i), 3600, "10.9.9.9")}, cache.CredAnswer, false)
	}
	const workers, rounds = 4, 10
	errs := make(chan error, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				errs <- st.Checkpoint(cs)
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if err != nil {
			failed++
			t.Errorf("Checkpoint: %v", err)
		}
	}
	st.Close()

	st2 := f.open()
	defer st2.Close()
	rep, err := st2.Recover(f.server(st2, core.Config{}))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if want := uint64(workers*rounds - failed); rep.Generation != want {
		t.Errorf("%d successful checkpoints left generation %d", want, rep.Generation)
	}
	if !rep.SnapshotFound || rep.Replayed != entries || rep.Dropped != 0 || rep.TornTail {
		t.Errorf("report = %+v, want %d entries, nothing dropped, no tear", rep, entries)
	}
}
