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
)

// TestRecoversStoreOfEarlierLayout: testdata/compat holds a snapshot and
// journal written at commit a648455, when a cache entry still carried its
// key, a StoredAt and two time.Times, and entries.txt is what that cache
// held when they were written: a resolution's entries, peer-learned ones,
// and a journal of Put, Extend and Evict one minute later. The current
// layout must restore the same keys, records, original TTLs, expiry
// instants, credibility, infra flags and origins.
func TestRecoversStoreOfEarlierLayout(t *testing.T) {
	f := newFixture(t)
	f.clk.Advance(time.Minute)
	for _, name := range []string{snapshotFile, journalFile} {
		b, err := os.ReadFile(filepath.Join("testdata", "compat", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(f.dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "compat", "entries.txt"))
	if err != nil {
		t.Fatal(err)
	}

	st := f.open()
	defer st.Close()
	cs := f.server(st, core.Config{})
	rep, err := st.Recover(cs)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.JournalReplayed || rep.JournalOps == 0 || rep.Dropped != 0 || rep.TornTail {
		t.Errorf("report = %+v, want the journal replayed with nothing dropped", rep)
	}
	var lines []string
	cs.Cache().Range(func(e *cache.Entry) bool {
		var rrs []string
		for _, rr := range e.RRs {
			rrs = append(rrs, rr.Data.String())
		}
		key := e.Key()
		lines = append(lines, fmt.Sprintf("%s %s origttl=%v expires=%s cred=%d infra=%v origin=%d rrs=%s",
			key.Name, key.Type, e.OrigTTL(), e.Expires().UTC().Format(time.RFC3339Nano), e.Cred(), e.Infra(), e.Origin(), strings.Join(rrs, ",")))
		return true
	})
	sort.Strings(lines)
	if got := strings.Join(lines, "\n") + "\n"; got != string(want) {
		t.Errorf("restored cache:\n%s\nwant:\n%s", got, want)
	}
}
