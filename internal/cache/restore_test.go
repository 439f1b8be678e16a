package cache

import (
	"testing"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
)

// snapshotEntries captures what a persistence snapshot would: every entry
// Range yields, as RestoreEntry values.
func snapshotEntries(c *Cache) []RestoreEntry {
	var out []RestoreEntry
	c.Range(func(e *Entry) bool {
		out = append(out, RestoreEntry{
			RRs:     e.RRs,
			Cred:    e.Cred(),
			Infra:   e.Infra(),
			OrigTTL: e.OrigTTL(),
			Expires: e.Expires(),
		})
		return true
	})
	return out
}

func TestRangeVisitsLiveAndStale(t *testing.T) {
	c, clk := newTestCache(t, Config{KeepStale: time.Hour})
	c.Put([]dnswire.RR{rrA("live.edu.", 3600, "192.0.2.1")}, CredAnswer, false)
	c.Put([]dnswire.RR{rrA("dead.edu.", 60, "192.0.2.2")}, CredAnswer, false)
	clk.Advance(2 * time.Minute)
	// Retire dead.edu. into stale retention via a lookup.
	if c.Get(dnswire.MustName("dead.edu."), dnswire.TypeA) != nil {
		t.Fatal("expired entry served live")
	}
	n := 0
	c.Range(func(e *Entry) bool { n++; return true })
	if n != 2 {
		t.Errorf("Range visited %d entries, want 2 (live + stale)", n)
	}
	// Early termination.
	n = 0
	c.Range(func(e *Entry) bool { n++; return false })
	if n != 1 {
		t.Errorf("Range ignored false return, visited %d", n)
	}
}

func TestRestoreReclampsTTL(t *testing.T) {
	// The source cache allowed 10h; the restoring cache clamps at 1h — as
	// when -max-ttl is lowered between runs.
	src, clk := newTestCache(t, Config{MaxTTL: 10 * time.Hour})
	src.Put([]dnswire.RR{rrA("www.edu.", 36000, "192.0.2.1")}, CredAnswer, false)

	dst := New(Config{Clock: clk, MaxTTL: time.Hour})
	for _, re := range snapshotEntries(src) {
		if !dst.Restore(re) {
			t.Fatal("Restore rejected a live entry")
		}
	}
	e := dst.Peek(dnswire.MustName("www.edu."), dnswire.TypeA)
	if e == nil {
		t.Fatal("entry not restored")
	}
	if e.OrigTTL() != time.Hour {
		t.Errorf("OrigTTL = %v, want re-clamped 1h", e.OrigTTL())
	}
	if want := clk.Now().Add(time.Hour); e.Expires().After(want) {
		t.Errorf("Expires = %v, beyond the clamp %v", e.Expires(), want)
	}
}

func TestRestoreDropsExpired(t *testing.T) {
	c, clk := newTestCache(t, Config{})
	re := RestoreEntry{
		RRs:     []dnswire.RR{rrA("www.edu.", 300, "192.0.2.1")},
		Cred:    CredAnswer,
		OrigTTL: 5 * time.Minute,
		Expires: clk.Now().Add(-time.Minute),
	}
	if c.Restore(re) {
		t.Error("Restore kept an expired entry with no stale retention")
	}
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries", c.Len())
	}
}

func TestRestoreKeepsStaleWithinWindow(t *testing.T) {
	c, clk := newTestCache(t, Config{KeepStale: time.Hour})
	name := dnswire.MustName("www.edu.")
	re := RestoreEntry{
		RRs:     []dnswire.RR{rrA("www.edu.", 300, "192.0.2.1")},
		Cred:    CredAnswer,
		OrigTTL: 5 * time.Minute,
		Expires: clk.Now().Add(-30 * time.Minute), // inside the window
	}
	if !c.Restore(re) {
		t.Fatal("Restore dropped an entry inside the stale window")
	}
	if c.Get(name, dnswire.TypeA) != nil {
		t.Error("stale entry served as live")
	}
	if c.GetStale(name, dnswire.TypeA) == nil {
		t.Error("restored stale entry not servable via GetStale")
	}

	re.Expires = clk.Now().Add(-2 * time.Hour) // beyond the window
	re.RRs = []dnswire.RR{rrA("old.edu.", 300, "192.0.2.2")}
	if c.Restore(re) {
		t.Error("Restore kept an entry beyond the stale window")
	}
}

func TestRestoreRejectsCorruptRRsets(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	if c.Restore(RestoreEntry{}) {
		t.Error("Restore accepted an empty RRset")
	}
	mixed := RestoreEntry{
		RRs:     []dnswire.RR{rrA("a.edu.", 300, "192.0.2.1"), rrA("b.edu.", 300, "192.0.2.2")},
		Cred:    CredAnswer,
		OrigTTL: 5 * time.Minute,
	}
	if c.Restore(mixed) {
		t.Error("Restore accepted a mixed-owner RRset")
	}
}

func TestRestoreDoesNotFireOnChange(t *testing.T) {
	fired := 0
	clk := simclock.NewVirtual(epoch)
	c := New(Config{
		Clock:    clk,
		OnChange: func(op ChangeOp, key Key, e *Entry) { fired++ },
	})
	c.Restore(RestoreEntry{
		RRs:     []dnswire.RR{rrA("www.edu.", 300, "192.0.2.1")},
		Cred:    CredAnswer,
		OrigTTL: 5 * time.Minute,
		Expires: clk.Now().Add(5 * time.Minute),
	})
	if fired != 0 {
		t.Errorf("Restore fired OnChange %d times", fired)
	}
	// Sanity: normal mutations do fire.
	c.Put([]dnswire.RR{rrA("live.edu.", 300, "192.0.2.3")}, CredAnswer, false)
	if fired != 1 {
		t.Errorf("Put fired OnChange %d times, want 1", fired)
	}
}

func TestOnChangeReportsMutations(t *testing.T) {
	type change struct {
		op  ChangeOp
		key Key
	}
	var got []change
	clk := simclock.NewVirtual(epoch)
	c := New(Config{
		Clock:           clk,
		RefreshInfraTTL: true,
		OnChange:        func(op ChangeOp, key Key, e *Entry) { got = append(got, change{op, key}) },
	})
	set := []dnswire.RR{rrNS("ucla.edu.", 3600, "ns1.ucla.edu.")}
	key := Key{Name: dnswire.MustName("ucla.edu."), Type: dnswire.TypeNS}
	c.Put(set, CredAuthority, true) // ChangePut
	c.Put(set, CredAuthority, true) // refresh → ChangeExtend
	c.Extend(key.Name, key.Type)    // ChangeExtend
	c.Evict(key.Name, key.Type)     // ChangeEvict
	c.Evict(key.Name, key.Type)     // absent: no event
	want := []change{
		{ChangePut, key},
		{ChangeExtend, key},
		{ChangeExtend, key},
		{ChangeEvict, key},
	}
	if len(got) != len(want) {
		t.Fatalf("observed %d changes (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("change[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestExtendStaleTombstoneAcrossRestore is the snapshot→restore interplay
// test: entries that were extended before the snapshot keep their extended
// life after restore; entries that expire between snapshot and reload come
// back only as stale (when retention is on) and still support the
// tombstone/gap bookkeeping for the queries that follow.
func TestExtendStaleTombstoneAcrossRestore(t *testing.T) {
	src, clk := newTestCache(t, Config{KeepStale: time.Hour, RefreshInfraTTL: true})
	extName := dnswire.MustName("ext.edu.")
	dieName := dnswire.MustName("die.edu.")
	src.Put([]dnswire.RR{rrNS("ext.edu.", 600, "ns1.ext.edu.")}, CredAuthority, true)
	src.Put([]dnswire.RR{rrA("die.edu.", 600, "192.0.2.9")}, CredAnswer, false)

	// A renewal refetch extends ext.edu. 5 minutes in: its expiry becomes
	// t0+5m+10m.
	clk.Advance(5 * time.Minute)
	if !src.Extend(extName, dnswire.TypeNS) {
		t.Fatal("Extend failed")
	}
	snap := snapshotEntries(src) // the "snapshot" is cut here

	// The process is down for 7 minutes: die.edu. (expires t0+10m) dies
	// during the outage; ext.edu. (expires t0+15m) survives it.
	clk.Advance(7 * time.Minute)
	dst := New(Config{Clock: clk, KeepStale: time.Hour, RefreshInfraTTL: true})
	kept := 0
	for _, re := range snap {
		if dst.Restore(re) {
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("restored %d entries, want 2 (one live, one stale)", kept)
	}

	// The extended entry is alive because of the pre-snapshot Extend.
	if dst.Get(extName, dnswire.TypeNS) == nil {
		t.Error("extended entry did not survive the restart")
	}
	// The dead entry is a stale-only hit...
	if dst.Get(dieName, dnswire.TypeA) != nil {
		t.Error("expired entry served as live after restore")
	}
	if dst.GetStale(dieName, dnswire.TypeA) == nil {
		t.Error("expired entry not servable as stale after restore")
	}
	// ...and the Get miss above retired it with a tombstone, so the next
	// Put measures the expiry gap — the Fig. 3 bookkeeping keeps working
	// across restarts.
	gapSeen := false
	dst2 := New(Config{
		Clock:     clk,
		KeepStale: time.Hour,
		OnGap:     func(key Key, gap, origTTL time.Duration) { gapSeen = true },
	})
	for _, re := range snap {
		dst2.Restore(re)
	}
	if dst2.Get(dieName, dnswire.TypeA) != nil {
		t.Fatal("expired entry served as live")
	}
	dst2.Put([]dnswire.RR{rrA("die.edu.", 600, "192.0.2.9")}, CredAnswer, false)
	if !gapSeen {
		t.Error("expiry gap not measured for an entry that died across the restart")
	}
	// Extending the restored stale entry revives it to a full OrigTTL.
	if !dst.Extend(dieName, dnswire.TypeA) {
		t.Fatal("Extend failed on a restored stale entry")
	}
	if dst.Get(dieName, dnswire.TypeA) == nil {
		t.Error("extended stale entry still not served live")
	}
}
