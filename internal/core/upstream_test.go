package core

import (
	"context"
	"testing"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/transport"
)

// The upstream selector's own unit tests (ordering, quarantine, backoff,
// timeouts, the retry-budget context) live with the selector in
// internal/resolve. The tests here exercise the upstream behaviour end to
// end through the CachingServer policy shell.

// TestNoCreditOnTotalFailure is the regression test for the
// credit-accounting bug: queryZone used to award renewal credit before
// any exchange was attempted, so a zone whose servers were all down still
// earned credit toward renewing IRRs it could never refetch.
func TestNoCreditOnTotalFailure(t *testing.T) {
	f := newFixture(t, Config{RefreshTTL: true, Renewal: LRU{C: 3}})
	f.resolveA(t, "www.ucla.edu.") // warm: ucla.edu earns credit legitimately
	f.cs.renewMu.Lock()
	before := f.cs.credits[dnswire.MustName("ucla.edu.")]
	f.cs.renewMu.Unlock()
	if before == 0 {
		t.Fatal("warm-up resolution earned no credit")
	}

	f.net.SetAttack(attack.Schedule{attack.NewWindow(
		f.clock.Now(), 24*time.Hour, dnswire.MustName("ucla.edu."))})
	f.clock.Advance(10 * time.Minute) // www A (300s) expired; ucla IRR alive
	if _, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA); err == nil {
		t.Fatal("resolution succeeded with every ucla server down")
	}

	f.cs.renewMu.Lock()
	after := f.cs.credits[dnswire.MustName("ucla.edu.")]
	f.cs.renewMu.Unlock()
	if after > before {
		t.Errorf("credit grew from %v to %v on a total failure", before, after)
	}
}

// killHost replaces a fixture host with a handler that never answers, so
// queries to it time out.
func killHost(f *fixture, addr, zone string) {
	f.net.Register(&simnet.Host{
		Addr:    transport.Addr(addr),
		Zone:    dnswire.MustName(zone),
		Handler: transport.HandlerFunc(func(*dnswire.Message) *dnswire.Message { return nil }),
	})
}

// TestQuarantineSkipAndRecovery covers the upstream behaviour end to
// end: a failing server is quarantined and skipped while healthy peers
// exist, and remains reachable by failover once its peers die too.
func TestQuarantineSkipAndRecovery(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	killHost(f, "10.0.2.1", "ucla.edu.") // ns1.ucla.edu stops answering

	// Expire the cached A record but not the ucla IRRs, then resolve: the
	// dead server (first in input order) fails once and is quarantined.
	f.clock.Advance(10 * time.Minute)
	f.resolveA(t, "www.ucla.edu.")
	st := f.cs.Stats()
	if st.QueriesOutFailed == 0 {
		t.Fatal("dead server was never tried")
	}
	failed := st.QueriesOutFailed

	// A different miss in the same zone, inside the quarantine window: the
	// dead server must be skipped, not retried.
	f.resolveA(t, "ftp.ucla.edu.") // NXDOMAIN; must hit only the live server
	st = f.cs.Stats()
	if st.QueriesOutFailed != failed {
		t.Errorf("QueriesOutFailed grew to %d inside the quarantine window", st.QueriesOutFailed)
	}
	if st.QuarantineSkips == 0 {
		t.Error("quarantined server was not counted as skipped")
	}

	// After the window lapses, the failure's RTT penalty still ranks the
	// proven-fast live server first, so the dead one stays un-probed.
	f.clock.Advance(time.Minute)
	f.resolveA(t, "mail.ucla.edu.")
	if st := f.cs.Stats(); st.QueriesOutFailed != failed {
		t.Error("penalised server probed first despite a healthy fast peer")
	}

	// Recovery: revive the first server, kill the preferred one. Failover
	// must walk past the fresh failure to the revived server and succeed.
	f.reviveUclaHost("10.0.2.1")
	killHost(f, "10.0.2.2", "ucla.edu.")
	res := f.resolveA(t, "smtp.ucla.edu.")
	if res.RCode != dnswire.RCodeNXDomain {
		t.Errorf("RCode = %v, want NXDOMAIN from the revived server", res.RCode)
	}
	if st := f.cs.Stats(); st.QueriesOutFailed != failed+1 {
		t.Errorf("QueriesOutFailed = %d, want %d (one failure on the newly dead server)", st.QueriesOutFailed, failed+1)
	}
}

// TestSRTTSelectionPrefersProvenServer: a server that only ever fails
// accumulates a timeout-sized RTT penalty, so selection keeps leading
// with the live server long after every quarantine window has lapsed.
func TestSRTTSelectionPrefersProvenServer(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	killHost(f, "10.0.2.1", "ucla.edu.")

	f.clock.Advance(10 * time.Minute)
	f.resolveA(t, "www.ucla.edu.") // one failure on the dead server
	failed := f.cs.Stats().QueriesOutFailed

	// Long gaps (quarantine always lapsed): the dead server's penalised
	// SRTT still ranks it behind the answering one.
	for i := 0; i < 3; i++ {
		f.clock.Advance(10 * time.Minute)
		f.resolveA(t, "www.ucla.edu.")
	}
	if st := f.cs.Stats(); st.QueriesOutFailed != failed {
		t.Errorf("QueriesOutFailed = %d, want %d: selection kept probing the dead server first", st.QueriesOutFailed, failed)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	// Budget 3 covers the initial root → edu → ucla walk exactly.
	f := newFixture(t, Config{Upstream: UpstreamConfig{RetryBudget: 3}})
	f.resolveA(t, "www.ucla.edu.")

	// Everything goes down; the cached A expires. Without a budget the
	// resolver would bounce between ucla and edu until the referral bound,
	// burning an attempt on every server each round; with budget 3 it
	// stops after three.
	f.net.SetAttack(attack.Schedule{attack.NewWindow(f.clock.Now(), 24*time.Hour,
		dnswire.Root, dnswire.MustName("edu."), dnswire.MustName("ucla.edu."))})
	f.clock.Advance(10 * time.Minute)
	before := f.cs.Stats().QueriesOut
	if _, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA); err == nil {
		t.Fatal("resolution succeeded with the whole hierarchy down")
	}
	st := f.cs.Stats()
	if st.BudgetExhausted == 0 {
		t.Error("budget exhaustion not recorded")
	}
	if spent := st.QueriesOut - before; spent > 3 {
		t.Errorf("resolution spent %d attempts, budget was 3", spent)
	}
}

// TestSpoofedQuestionRejected is the regression test for accepting
// responses on ID match alone: a response with the right ID but the wrong
// question must be treated like a mismatched ID.
func TestSpoofedQuestionRejected(t *testing.T) {
	spoofed := 0
	tr := transport.Exchanger(func(_ context.Context, _ transport.Addr, q *dnswire.Message) (*dnswire.Message, error) {
		spoofed++
		resp := dnswire.NewQuery(q.ID, dnswire.MustName("evil.example."), dnswire.TypeA)
		resp.Flags.Response = true
		return resp, nil
	})
	cs, err := NewCachingServer(Config{
		Transport: tr,
		Clock:     simclock.NewVirtual(epoch),
		RootHints: []ServerRef{{Host: dnswire.MustName("a.root-servers.net."), Addr: "10.0.0.1"}},
	})
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}
	if _, err := cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA); err == nil {
		t.Fatal("resolution accepted a response that does not echo the question")
	}
	if spoofed == 0 {
		t.Fatal("spoofing transport never invoked")
	}
	if st := cs.Stats(); st.QueriesOutFailed == 0 {
		t.Error("spoofed response not counted as a failed exchange")
	}
}

// TestStaleCNAMEChainChased is the regression test for staleAnswer
// returning a dangling stale CNAME: the chain must be followed through
// the stale cache to the terminal address records.
func TestStaleCNAMEChainChased(t *testing.T) {
	f := newFixture(t, Config{ServeStale: 24 * time.Hour})
	f.resolveA(t, "alias.ucla.edu.") // caches alias CNAME www.com. + its A

	// Take the whole hierarchy down and let every record expire: live and
	// stale iteration both fail, leaving staleAnswer as the last resort.
	f.net.SetAttack(attack.Schedule{attack.NewWindow(f.clock.Now(), 48*time.Hour,
		dnswire.Root, dnswire.MustName("edu."), dnswire.MustName("com."), dnswire.MustName("ucla.edu."))})
	f.clock.Advance(10 * time.Minute) // alias CNAME (300s) and www.com A (600s) expired

	res, err := f.cs.Resolve(context.Background(), dnswire.MustName("alias.ucla.edu."), dnswire.TypeA)
	if err != nil {
		t.Fatalf("stale resolution failed: %v", err)
	}
	var haveCNAME, haveA bool
	for _, rr := range res.Answer {
		if rr.TTL != staleServeTTL {
			t.Errorf("stale RR served with TTL %d, want %d", rr.TTL, staleServeTTL)
		}
		switch rr.Type() {
		case dnswire.TypeCNAME:
			haveCNAME = true
		case dnswire.TypeA:
			haveA = true
			if rr.Data.String() != "10.8.8.8" {
				t.Errorf("stale A = %s, want 10.8.8.8", rr.Data)
			}
		}
	}
	if !haveCNAME || !haveA {
		t.Fatalf("stale answer = %v, want CNAME chain chased to its A record", res.Answer)
	}
	if st := f.cs.Stats(); st.StaleAnswers < 2 {
		t.Errorf("StaleAnswers = %d, want both chain entries counted", st.StaleAnswers)
	}
}
