package maporder_test

import (
	"path/filepath"
	"testing"

	"resilientdns/internal/analysis/antest"
	"resilientdns/internal/analysis/maporder"
)

func TestMapOrder(t *testing.T) {
	antest.Scope(t, maporder.Analyzer, "maporder_bad", "maporder_ok")

	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	antest.Run(t, dir, maporder.Analyzer, "maporder_bad", "maporder_ok", "maporder_other")
}
