package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"resilientdns/internal/resolve"
)

// TestQueryLogBuffersAndCloses: Observe writes nothing to the file on its
// own — it may be running on the listener's read loop — Flush does, and
// Close leaves a complete file: every trace observed, one parseable line
// each, in order.
func TestQueryLogBuffersAndCloses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	sink, err := newJSONLogSink(path)
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	const n = 100
	for i := 1; i <= n; i++ {
		sink.Observe(resolve.TraceSummary{ID: uint64(i), Kind: "query", Name: fmt.Sprintf("h%d.example.", i)})
		if i == 10 {
			if size() != 0 {
				t.Error("Observe wrote to the file before any flush")
			}
			sink.Flush()
			if size() == 0 {
				t.Error("Flush wrote nothing")
			}
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var ts resolve.TraceSummary
		if err := json.Unmarshal(sc.Bytes(), &ts); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", lines+1, err, sc.Bytes())
		}
		if lines++; ts.ID != uint64(lines) {
			t.Fatalf("line %d carries trace %d", lines, ts.ID)
		}
	}
	if lines != n {
		t.Errorf("file holds %d lines after Close, want %d", lines, n)
	}
}
