package persist

import (
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
)

// FuzzParseStore drives the whole on-disk decode path — header, frame
// stream, and every record payload decoder — with arbitrary bytes. The
// recovery contract is that corrupt input degrades (unusable header,
// dropped records, torn tail) and never panics: a damaged store must not
// be able to keep the server from starting.
func FuzzParseStore(f *testing.F) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// Seed with a well-formed snapshot and journal so mutation explores
	// near-valid inputs, plus their truncations (torn tails).
	entry, err := encodeEntry(entryOf(f, cache.RestoreEntry{
		RRs: []dnswire.RR{{
			Name:  dnswire.MustName("example."),
			Class: dnswire.ClassIN,
			TTL:   3600,
			Data:  dnswire.NS{Host: dnswire.MustName("ns1.example.")},
		}},
		Cred:    cache.CredAuthority,
		Infra:   true,
		OrigTTL: time.Hour,
		Expires: now.Add(time.Hour),
	}, now), now)
	if err != nil {
		f.Fatal(err)
	}
	snap := appendHeader(nil, fileHeader{Kind: kindSnapshot, Generation: 3, CreatedAt: now})
	snap = appendFrame(snap, recEntry, entry)
	snap = appendFrame(snap, recCredit, encodeCredit(dnswire.MustName("example."), 2.5))
	snap = appendFrame(snap, recServer, encodeServer(core.UpstreamServerState{
		Addr: "10.0.0.1:53", SRTT: 20 * time.Millisecond, RTTVar: 5 * time.Millisecond, Samples: 7,
	}))
	journal := appendHeader(nil, fileHeader{Kind: kindJournal, Generation: 3, CreatedAt: now})
	journal = appendFrame(journal, recEntry, entry)
	journal = appendFrame(journal, recExtend, encodeExtend(cache.Key{Name: dnswire.MustName("example."), Type: dnswire.TypeNS}, now.Add(2*time.Hour)))
	journal = appendFrame(journal, recEvict, appendKey(nil, cache.Key{Name: dnswire.MustName("example."), Type: dnswire.TypeNS}))

	f.Add(snap)
	f.Add(journal)
	f.Add(snap[:len(snap)-3]) // torn tail
	f.Add(journal[:headerLen+1])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		if d := parseFile(b, kindSnapshot); d == nil {
			t.Fatal("parseFile(snapshot) returned nil")
		}
		if d := parseFile(b, kindJournal); d == nil {
			t.Fatal("parseFile(journal) returned nil")
		}
	})
}

// TestFuzzSeedsRoundTrip pins the seed corpus semantics: the valid seeds
// must decode fully, and the torn variants must flag the tear.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	entry, err := encodeEntry(entryOf(t, cache.RestoreEntry{
		RRs: []dnswire.RR{{
			Name:  dnswire.MustName("example."),
			Class: dnswire.ClassIN,
			TTL:   3600,
			Data:  dnswire.NS{Host: dnswire.MustName("ns1.example.")},
		}},
		Cred:    cache.CredAuthority,
		Infra:   true,
		OrigTTL: time.Hour,
		Expires: now.Add(time.Hour),
	}, now), now)
	if err != nil {
		t.Fatal(err)
	}
	snap := appendHeader(nil, fileHeader{Kind: kindSnapshot, Generation: 3, CreatedAt: now})
	snap = appendFrame(snap, recEntry, entry)
	snap = appendFrame(snap, recCredit, encodeCredit(dnswire.MustName("example."), 2.5))

	d := parseFile(snap, kindSnapshot)
	if d.unusable || d.torn || d.dropped != 0 || len(d.recs) != 2 || d.recs[0].typ != recEntry ||
		d.recs[1].typ != recCredit || d.recs[1].zone != dnswire.MustName("example.") || d.recs[1].credit != 2.5 {
		t.Fatalf("valid snapshot decoded as %+v", d)
	}
	if d.gen != 3 {
		t.Errorf("generation = %d, want 3", d.gen)
	}
	got := d.recs[0].entry
	if got.OrigTTL != time.Hour || !got.Expires.Equal(now.Add(time.Hour)) || !got.Infra || got.Cred != cache.CredAuthority {
		t.Errorf("entry decoded as %+v", got)
	}

	torn := parseFile(snap[:len(snap)-3], kindSnapshot)
	if !torn.torn {
		t.Error("truncated snapshot not flagged torn")
	}
	if len(torn.recs) != 1 || torn.recs[0].typ != recEntry {
		t.Errorf("torn snapshot kept %d records, want the 1 entry before the tear", len(torn.recs))
	}

	if !parseFile(nil, kindSnapshot).unusable {
		t.Error("empty input not flagged unusable")
	}
	if !parseFile(snap, kindJournal).unusable {
		t.Error("snapshot bytes accepted as a journal")
	}
}
