package lintutil

import "testing"

func TestPkgMatches(t *testing.T) {
	cases := []struct {
		path     string
		patterns []string
		want     bool
	}{
		{"resilientdns/internal/sim", []string{"resilientdns/internal/sim"}, true},
		{"resilientdns/internal/simnet", []string{"resilientdns/internal/sim"}, false},
		{"resilientdns/internal/sim", []string{"a", "resilientdns/internal/sim", "b"}, true},
		{"resilientdns/internal/sim", nil, false},
		{"resilientdns/internal/sim/sub", []string{"resilientdns/internal/sim"}, false},
		{"resilientdns/internal/sim/sub", []string{"resilientdns/internal/sim/..."}, true},
		{"resilientdns/internal/sim", []string{"resilientdns/internal/sim/..."}, true},
		{"resilientdns/internal/simnet", []string{"resilientdns/internal/sim/..."}, false},
	}
	for _, c := range cases {
		if got := pkgMatches(c.path, c.patterns); got != c.want {
			t.Errorf("pkgMatches(%q, %q) = %v, want %v", c.path, c.patterns, got, c.want)
		}
	}
}

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text string
		name string
		ok   bool
	}{
		{"//dnslint:ignore wallclock production clock impl", "wallclock", true},
		{"//dnslint:ignore wallclock", "", false},
		{"//dnslint:ignore", "", false},
		{"// dnslint:ignore wallclock reason", "", false},
		{"// ordinary comment", "", false},
	}
	for _, c := range cases {
		name, ok := parseIgnore(c.text)
		if name != c.name || ok != c.ok {
			t.Errorf("parseIgnore(%q) = (%q, %v), want (%q, %v)", c.text, name, ok, c.name, c.ok)
		}
	}
}
