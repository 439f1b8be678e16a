package locks_test

import (
	"path/filepath"
	"testing"

	"resilientdns/internal/analysis/antest"
	"resilientdns/internal/analysis/locks"
)

func TestLockExchange(t *testing.T) {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	antest.Run(t, dir, locks.Lockexchange,
		"lockexchange_bad", "lockexchange_ok", "lockexchange_ignored")
}

func TestLockorder(t *testing.T) {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	antest.Run(t, dir, locks.Lockorder,
		"lockorder_bad", "lockorder_ok", "lockorder_stale")
}
