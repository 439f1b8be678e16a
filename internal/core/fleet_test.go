package core

import (
	"context"
	"testing"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/dnswire"
)

// fakeFleet is a Config.Fleet that owns nothing, records what it is told
// and answers every peer fetch with one fixed message.
type fakeFleet struct {
	asked, gossiped []dnswire.Name
	answer          *dnswire.Message
}

func (f *fakeFleet) OwnsRenewal(zone dnswire.Name) bool {
	f.asked = append(f.asked, zone)
	return false
}

func (f *fakeFleet) GossipZone(zone dnswire.Name) { f.gossiped = append(f.gossiped, zone) }

func (f *fakeFleet) PeerFetch(context.Context, dnswire.Name, dnswire.Type) *dnswire.Message {
	return f.answer
}

// blackout takes every zone of the fixture down from now on.
func (f *fixture) blackout() {
	f.net.SetAttack(attack.Schedule{attack.NewWindow(f.clock.Now(), 24*time.Hour,
		dnswire.Root, dnswire.MustName("edu."), dnswire.MustName("com."), dnswire.MustName("ucla.edu."))})
}

func TestFleetSeam(t *testing.T) {
	fleet := &fakeFleet{answer: &dnswire.Message{Answer: []dnswire.RR{rrA("www.ucla.edu.", 60, "10.9.9.9")}}}
	f := newFixture(t, Config{RefreshTTL: true, Renewal: LRU{C: 3}, Fleet: fleet})
	f.resolveA(t, "www.com.")

	// A fleet member checks a zone a whole takeover window before expiry,
	// asks who owns it, and while someone else does, spends nothing.
	due, ok := f.cs.NextRenewalDue()
	if want := epoch.Add(24*time.Hour - takeoverLead); !ok || !due.Equal(want) {
		t.Fatalf("first renewal check due %v (%v), want %v", due, ok, want)
	}
	f.clock.AdvanceTo(due)
	f.cs.ProcessDueRenewals(context.Background(), due)
	st := f.cs.Stats()
	if len(fleet.asked) == 0 || st.RenewalDeferred == 0 || st.RenewalQueries != 0 {
		t.Errorf("asked %v, deferred %d, renewal queries %d: want the renewal deferred to the owner",
			fleet.asked, st.RenewalDeferred, st.RenewalQueries)
	}
	// With lastChance left and no gossip, it renews locally and tells the fleet.
	f.clock.AdvanceTo(epoch.Add(24*time.Hour - lastChance))
	f.cs.ProcessDueRenewals(context.Background(), f.clock.Now())
	if len(fleet.gossiped) != 1 || fleet.gossiped[0] != dnswire.MustName("com.") {
		t.Errorf("gossiped %v after the last-chance renewal, want [com.]", fleet.gossiped)
	}

	// A failed resolution falls back to the peer's message, as a cached Result.
	f.blackout()
	res, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	if err != nil || !res.FromCache || len(res.Answer) != 1 || res.Answer[0].Data.String() != "10.9.9.9" {
		t.Fatalf("peer-fetched result = %+v, %v", res, err)
	}
	if st := f.cs.Stats(); st.PeerFetches != 1 || st.PeerFetchAnswered != 1 {
		t.Errorf("peer-fetch counters = %d attempted, %d answered, want 1 and 1", st.PeerFetches, st.PeerFetchAnswered)
	}
}

// TestNoFleetNoPeerFetch: without a Fleet the pipeline's peer-fetch hook
// stays nil, so a failed resolution neither counts an attempt nor opens
// the stage, and renewals keep the solo lead.
func TestNoFleetNoPeerFetch(t *testing.T) {
	f := newFixture(t, Config{RefreshTTL: true, Renewal: LRU{C: 3}})
	f.resolveA(t, "www.com.")
	if due, _ := f.cs.NextRenewalDue(); !due.Equal(epoch.Add(24*time.Hour - renewLead)) {
		t.Errorf("solo renewal check due %v, want %v before expiry", due, renewLead)
	}
	f.blackout()
	if _, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA); err == nil {
		t.Fatal("resolution succeeded with every server down")
	}
	if st := f.cs.Stats(); st.PeerFetches != 0 || st.PeerFetchAnswered != 0 {
		t.Errorf("peer-fetch counters moved without a fleet: %+v", st)
	}
}
