package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
)

// The checked-in FuzzParseStore seed corpus and the golden of how every
// seed decodes, read as a snapshot and as a journal.
var (
	seedCorpusDir   = filepath.Join("testdata", "fuzz", "FuzzParseStore")
	seedDecodesFile = filepath.Join("testdata", "seed_decodes.txt")
)

// seedFile renders seed bytes in the go fuzz corpus file encoding.
func seedFile(b []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b))
}

// TestWriteFuzzCorpus regenerates the checked-in FuzzParseStore seed
// corpus under testdata/fuzz/ and the decode golden beside it. It is a
// generator, not a test: run
//
//	WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/persist
//
// after changing the store format, and commit the result. The seeds put
// the CI fuzz smoke directly into the recovery-path states that matter:
// torn tails, CRC damage, stale generations, and lying frame lengths.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz seed corpora")
	}
	seeds := buildSeedCorpus(t)
	if err := os.MkdirAll(seedCorpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range seeds {
		if err := os.WriteFile(filepath.Join(seedCorpusDir, "seed-"+name), seedFile(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(seedDecodesFile, []byte(seedDecodes(seeds)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSeedCorpusIsCurrent holds the encoders to the committed corpus: the
// seeds the builder produces today must equal the files under
// testdata/fuzz/FuzzParseStore byte for byte, and no file may be there
// that the builder does not produce. An encoder that drifts changes the
// on-disk format; this is where it shows.
func TestSeedCorpusIsCurrent(t *testing.T) {
	seeds := buildSeedCorpus(t)
	files, err := os.ReadDir(seedCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(seeds) {
		t.Errorf("%s holds %d files, the builder makes %d seeds", seedCorpusDir, len(files), len(seeds))
	}
	for name, b := range seeds {
		got, err := os.ReadFile(filepath.Join(seedCorpusDir, "seed-"+name))
		if err != nil {
			t.Errorf("seed %s: %v", name, err)
			continue
		}
		if string(got) != string(seedFile(b)) {
			t.Errorf("seed %s: the encoders no longer produce the committed file", name)
		}
	}
}

// TestSeedDecodesMatchGolden holds the decoder to testdata/seed_decodes.txt:
// every seed, read as a snapshot and as a journal, must report the same
// generation, flags, dropped count and records per type as when the golden
// was captured.
func TestSeedDecodesMatchGolden(t *testing.T) {
	want, err := os.ReadFile(seedDecodesFile)
	if err != nil {
		t.Fatal(err)
	}
	if got := seedDecodes(buildSeedCorpus(t)); got != string(want) {
		t.Errorf("seed decodes differ from %s\n--- got\n%s--- want\n%s", seedDecodesFile, got, want)
	}
}

// seedDecodes renders one line per seed and file kind, in seed-name order.
func seedDecodes(seeds map[string][]byte) string {
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, "%s as snapshot: %s\n", name, decodeSummary(seeds[name], kindSnapshot))
		fmt.Fprintf(&sb, "%s as journal: %s\n", name, decodeSummary(seeds[name], kindJournal))
	}
	return sb.String()
}

// decodeSummary is what parsing b as a file of the given kind reports.
func decodeSummary(b []byte, kind byte) string {
	d := parseFile(b, kind)
	counts := make(map[byte]int)
	for _, rec := range d.recs {
		counts[rec.typ]++
	}
	return fmt.Sprintf("gen=%d torn=%v unusable=%v dropped=%d entry=%d extend=%d evict=%d credit=%d server=%d",
		d.gen, d.torn, d.unusable, d.dropped,
		counts[recEntry], counts[recExtend], counts[recEvict], counts[recCredit], counts[recServer])
}

// buildSeedCorpus builds the seed corpus, name → file bytes, from today's
// encoders.
func buildSeedCorpus(t testing.TB) map[string][]byte {
	t.Helper()
	now := time.Date(2026, 8, 6, 0, 0, 0, 0, time.UTC)
	key := cache.Key{Name: dnswire.MustName("corpus.example."), Type: dnswire.TypeA}
	entry, err := encodeEntry(entryOf(t, cache.RestoreEntry{
		RRs: []dnswire.RR{{
			Name:  dnswire.MustName("corpus.example."),
			Class: dnswire.ClassIN,
			TTL:   300,
			Data:  dnswire.NS{Host: dnswire.MustName("ns.corpus.example.")},
		}},
		Cred:    cache.CredAuthority,
		OrigTTL: 5 * time.Minute,
		Expires: now.Add(5 * time.Minute),
	}, now), now)
	if err != nil {
		t.Fatal(err)
	}

	snap := appendHeader(nil, fileHeader{Kind: kindSnapshot, Generation: 9, CreatedAt: now})
	snap = appendFrame(snap, recEntry, entry)
	snap = appendFrame(snap, recCredit, encodeCredit(dnswire.MustName("corpus.example."), 3.5))
	snap = appendFrame(snap, recServer, encodeServer(core.UpstreamServerState{
		Addr: "192.0.2.53:53", SRTT: 35 * time.Millisecond, RTTVar: 9 * time.Millisecond, Samples: 12,
	}))

	journal := appendHeader(nil, fileHeader{Kind: kindJournal, Generation: 9, CreatedAt: now})
	journal = appendFrame(journal, recEntry, entry)
	journal = appendFrame(journal, recExtend, encodeExtend(key, now.Add(time.Hour)))
	journal = appendFrame(journal, recEvict, appendKey(nil, key))

	seeds := map[string][]byte{
		"snapshot-valid": snap,
		"journal-valid":  journal,
	}

	// Torn tails at hostile offsets: inside the header, inside a frame
	// length prefix, and inside a payload.
	seeds["snapshot-torn-header"] = snap[:headerLen-2]
	seeds["snapshot-torn-frame-len"] = snap[:headerLen+2]
	seeds["journal-torn-payload"] = journal[:len(journal)-5]

	// Single-bit CRC damage in the middle of the first payload.
	crcBad := append([]byte{}, snap...)
	crcBad[headerLen+10] ^= 0x01
	seeds["snapshot-crc-flip"] = crcBad

	// Magic and version damage: must be rejected at the header.
	badMagic := append([]byte{}, snap...)
	badMagic[0] ^= 0xFF
	seeds["snapshot-bad-magic"] = badMagic
	badVersion := append([]byte{}, snap...)
	badVersion[8] = 0xFF
	seeds["snapshot-bad-version"] = badVersion

	// A frame that promises far more payload than the file holds.
	lying := appendHeader(nil, fileHeader{Kind: kindJournal, Generation: 9, CreatedAt: now})
	lying = append(lying, 0x7F, 0xFF, 0xFF, 0xFF) // absurd length prefix
	lying = append(lying, recEntry, 0, 0, 0, 0)
	seeds["journal-lying-length"] = lying

	// An unknown record type between two valid frames: recovery must
	// skip or stop cleanly, not panic.
	unknown := appendHeader(nil, fileHeader{Kind: kindSnapshot, Generation: 9, CreatedAt: now})
	unknown = appendFrame(unknown, recEntry, entry)
	unknown = appendFrame(unknown, 0xEE, []byte{1, 2, 3})
	unknown = appendFrame(unknown, recCredit, encodeCredit(dnswire.MustName("corpus.example."), 1))
	seeds["snapshot-unknown-record"] = unknown

	// Empty payloads for every record type: length-zero decode paths.
	empties := appendHeader(nil, fileHeader{Kind: kindJournal, Generation: 9, CreatedAt: now})
	for _, typ := range []byte{recEntry, recExtend, recEvict, recCredit, recServer} {
		empties = appendFrame(empties, typ, nil)
	}
	seeds["journal-empty-payloads"] = empties

	return seeds
}
