package core

import (
	"testing"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
)

func TestRenewalCreditsRoundTrip(t *testing.T) {
	f := newFixture(t, Config{RefreshTTL: true, Renewal: ALFU{C: 5, MaxDays: DefaultLFUMax(5)}})
	f.resolveA(t, "www.ucla.edu.")
	f.resolveA(t, "www.ucla.edu.")
	credits := f.cs.RenewalCredits()
	if len(credits) == 0 {
		t.Fatal("no credit accrued after repeated queries")
	}

	g := newFixture(t, Config{RefreshTTL: true, Renewal: ALFU{C: 5, MaxDays: DefaultLFUMax(5)}})
	g.cs.RestoreRenewalCredits(credits)
	got := g.cs.RenewalCredits()
	for z, c := range credits {
		if got[z] != c {
			t.Errorf("credit[%s] = %v, want %v", z, got[z], c)
		}
	}
	// Non-positive and empty-zone credit is dropped.
	g.cs.RestoreRenewalCredits(map[dnswire.Name]float64{"": 4, "junk.edu.": 0, "neg.edu.": -2})
	got = g.cs.RenewalCredits()
	for _, z := range []dnswire.Name{"", "junk.edu.", "neg.edu."} {
		if _, ok := got[z]; ok {
			t.Errorf("invalid credit for %q was stored", z)
		}
	}
}

// TestUpstreamStatesRoundTripThroughServer checks the CachingServer's
// checkpoint surface delegates to the pipeline's selection state. (The
// selector's own round-trip tests live in internal/resolve.)
func TestUpstreamStatesRoundTripThroughServer(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	states := f.cs.UpstreamStates()
	if len(states) == 0 {
		t.Fatal("no upstream state accumulated after a resolution")
	}

	g := newFixture(t, Config{})
	g.cs.RestoreUpstreamStates(states)
	again := g.cs.UpstreamStates()
	if len(again) != len(states) {
		t.Fatalf("restored %d states, want %d", len(again), len(states))
	}
	for i := range states {
		if again[i] != states[i] {
			t.Errorf("state[%d] = %+v, want %+v", i, again[i], states[i])
		}
	}
}

func TestRearmRenewalsSchedulesRestoredIRRs(t *testing.T) {
	f := newFixture(t, Config{RefreshTTL: true, Renewal: ALFU{C: 5, MaxDays: DefaultLFUMax(5)}})
	f.resolveA(t, "www.ucla.edu.")

	// A second server receives the cache contents via Restore (the
	// persistence path), which bypasses Put and thus renewal scheduling.
	g := newFixture(t, Config{RefreshTTL: true, Renewal: ALFU{C: 5, MaxDays: DefaultLFUMax(5)}})
	f.cs.Cache().Range(func(e *cache.Entry) bool {
		g.cs.Cache().Restore(cache.RestoreEntry{
			RRs: e.RRs, Cred: e.Cred(), Infra: e.Infra(),
			OrigTTL: e.OrigTTL(), Expires: e.Expires(),
		})
		return true
	})
	if _, ok := g.cs.NextRenewalDue(); ok {
		t.Fatal("renewal scheduled before RearmRenewals — test premise broken")
	}
	g.cs.RearmRenewals()
	if _, ok := g.cs.NextRenewalDue(); !ok {
		t.Error("RearmRenewals scheduled nothing for restored IRRs")
	}

	// Without a renewal policy it is a no-op.
	h := newFixture(t, Config{})
	h.cs.RearmRenewals()
	if _, ok := h.cs.NextRenewalDue(); ok {
		t.Error("RearmRenewals scheduled work with renewal off")
	}
}
