package goroleak_test

import (
	"path/filepath"
	"testing"

	"resilientdns/internal/analysis/antest"
	"resilientdns/internal/analysis/goroleak"
)

func TestGoroleak(t *testing.T) {
	antest.Scope(t, goroleak.Analyzer, "goroleak_bad", "goroleak_ok", "goroleak_stale")

	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	antest.Run(t, dir, goroleak.Analyzer,
		"goroleak_bad", "goroleak_ok", "goroleak_stale", "goroleak_outofscope")
}
