package main

import (
	"bytes"
	"strings"
	"testing"
)

// An unknown id fails the whole command line before anything is simulated:
// exit 2, the known ids on stderr, nothing on stdout — not even the valid
// fig4 that precedes it.
func TestUnknownIDFailsBeforeAnyRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-exp", "fig4,bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty: %q", stdout.String())
	}
	for _, want := range []string{`"bogus"`, "table1, fig3, fig4", "servestale, restart, mesh"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not contain %q", stderr.String(), want)
		}
	}
}

func TestVerboseReportsThePlan(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-v", "-exp", "ablation-negcache,table1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "== ablation-negcache:") || !strings.Contains(stdout.String(), "\n== table1:") {
		t.Errorf("tables missing or out of order:\n%s", stdout.String())
	}
	// 5 traces x 2 columns, then Table 1's six runs of which five are the
	// ablation's no-negcache column.
	for _, want := range []string{"[ablation-negcache done at ", "[table1 done at ", "[11 runs executed, 5 memo hits, "} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not contain %q", stderr.String(), want)
		}
	}
}
