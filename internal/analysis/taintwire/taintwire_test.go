package taintwire_test

import (
	"path/filepath"
	"testing"

	"resilientdns/internal/analysis/antest"
	"resilientdns/internal/analysis/taintwire"
)

func TestTaintwire(t *testing.T) {
	taintwire.SetChokepoints(t, "taintwire_ok.Ingest")

	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	antest.Run(t, dir, taintwire.Analyzer,
		"taintwire_bad", "taintwire_ok", "taintwire_stale")
}
