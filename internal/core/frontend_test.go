package core

import (
	"context"
	"testing"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/transport"
)

func TestFrontendAnswersStubQuery(t *testing.T) {
	f := newFixture(t, Config{RefreshTTL: true})
	q := dnswire.NewQuery(77, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	resp := f.cs.HandleQuery(q)
	if resp.ID != 77 || !resp.Flags.Response {
		t.Fatalf("resp header = %+v", resp)
	}
	if !resp.Flags.RecursionAvailable {
		t.Error("RA not set")
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 {
		t.Fatalf("resp = %v", resp)
	}
	if resp.Answer[0].Data.String() != "10.9.9.9" {
		t.Errorf("answer = %v", resp.Answer)
	}
}

func TestFrontendNXDomain(t *testing.T) {
	f := newFixture(t, Config{})
	q := dnswire.NewQuery(1, dnswire.MustName("missing.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	resp := f.cs.HandleQuery(q)
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v, want NXDOMAIN", resp.RCode)
	}
}

// TestFrontendNegativeAnswerCarriesSOA asserts the RFC 2308 contract: an
// NXDOMAIN reply carries the zone SOA in its authority section — live
// from the authoritative response, and again from the negative cache with
// the TTL clamped to the cached outcome's remaining lifetime.
func TestFrontendNegativeAnswerCarriesSOA(t *testing.T) {
	f := newFixture(t, Config{NegativeTTL: time.Minute})
	q := dnswire.NewQuery(1, dnswire.MustName("missing.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true

	soaOf := func(resp *dnswire.Message) dnswire.RR {
		t.Helper()
		if resp.RCode != dnswire.RCodeNXDomain {
			t.Fatalf("rcode = %v, want NXDOMAIN", resp.RCode)
		}
		if len(resp.Authority) != 1 || resp.Authority[0].Type() != dnswire.TypeSOA {
			t.Fatalf("authority = %v, want one SOA", resp.Authority)
		}
		return resp.Authority[0]
	}

	// Live negative answer: the fixture zone's SOA has TTL 3600 and
	// Minimum 60; RFC 2308 clamps to min(TTL, Minimum) = 60, and our own
	// NegativeTTL (60s) does not clamp further.
	rr := soaOf(f.cs.HandleQuery(q))
	if rr.Name != dnswire.MustName("ucla.edu.") || rr.TTL != 60 {
		t.Errorf("live SOA = %s TTL %d, want ucla.edu. TTL 60", rr.Name, rr.TTL)
	}

	// Served from the negative cache 45s later: the SOA TTL must have
	// decayed to the outcome's remaining 15s lifetime.
	f.clock.Advance(45 * time.Second)
	sent := f.cs.Stats().QueriesOut
	rr = soaOf(f.cs.HandleQuery(q))
	if f.cs.Stats().QueriesOut != sent {
		t.Error("negative-cache hit went upstream")
	}
	if rr.TTL != 15 {
		t.Errorf("cached SOA TTL = %d, want 15 (60s cache - 45s elapsed)", rr.TTL)
	}
}

func TestFrontendServFailWhenUnresolvable(t *testing.T) {
	f := newFixture(t, Config{})
	// Root and TLDs down, cold cache: resolution fails → SERVFAIL.
	f.net.SetAttack(attack.RootAndTLDs(epoch, 6*time.Hour, []dnswire.Name{
		dnswire.Root, dnswire.MustName("edu."), dnswire.MustName("com."),
	}))
	q := dnswire.NewQuery(1, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	resp := f.cs.HandleQuery(q)
	if resp.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v, want SERVFAIL", resp.RCode)
	}
}

func TestFrontendRejectsBadQueries(t *testing.T) {
	f := newFixture(t, Config{})
	resp := f.cs.HandleQuery(&dnswire.Message{ID: 5})
	if resp.RCode != dnswire.RCodeFormErr {
		t.Errorf("no-question rcode = %v, want FORMERR", resp.RCode)
	}
	q := dnswire.NewQuery(6, dnswire.MustName("a.edu."), dnswire.TypeA)
	q.Question[0].Class = dnswire.ClassCH
	resp = f.cs.HandleQuery(q)
	if resp.RCode != dnswire.RCodeRefused {
		t.Errorf("CH-class rcode = %v, want REFUSED", resp.RCode)
	}
}

// TestFrontendRefusesZoneTransfer: AXFR and IXFR are refused at the front
// door whatever RD says and in degraded mode too. Relayed like a data
// type, one small stub query would pull a whole zone from upstream and
// cache its answer section.
func TestFrontendRefusesZoneTransfer(t *testing.T) {
	f := newFixture(t, Config{})
	handlers := []struct {
		name   string
		handle func(*dnswire.Message) *dnswire.Message
	}{
		{"HandleQuery", f.cs.HandleQuery},
		{"HandleQueryCacheOnly", f.cs.HandleQueryCacheOnly},
	}
	for _, qtype := range []dnswire.Type{dnswire.TypeAXFR, dnswire.TypeIXFR} {
		for _, rd := range []bool{true, false} {
			for _, h := range handlers {
				q := dnswire.NewQuery(9, dnswire.Root, qtype)
				q.Flags.RecursionDesired = rd
				if resp := h.handle(q); resp.RCode != dnswire.RCodeRefused {
					t.Errorf("%s %s RD=%v: rcode = %v, want REFUSED", h.name, qtype, rd, resp.RCode)
				}
			}
		}
	}
	if out := f.cs.Stats().QueriesOut; out != 0 {
		t.Errorf("zone-transfer queries sent %d upstream queries, want 0", out)
	}
	if n := f.cs.Cache().Len(); n != 0 {
		t.Errorf("zone-transfer queries left %d records cached, want 0", n)
	}
}

func TestFrontendDecrementsTTLOnCachedAnswers(t *testing.T) {
	f := newFixture(t, Config{})
	q := dnswire.NewQuery(1, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	f.cs.HandleQuery(q)
	f.clock.Advance(100 * time.Second)
	resp := f.cs.HandleQuery(q)
	if len(resp.Answer) != 1 {
		t.Fatalf("resp = %v", resp)
	}
	if got := resp.Answer[0].TTL; got != 200 {
		t.Errorf("cached answer TTL = %d, want 200 (300s original - 100s elapsed)", got)
	}
}

// TestFrontendHonorsRDFlag covers the RD=0 contract: a stub probing the
// cache is served cached data — live, negative, or stale — but never
// triggers an upstream fetch, and a miss is REFUSED.
func TestFrontendHonorsRDFlag(t *testing.T) {
	t.Run("miss", func(t *testing.T) {
		f := newFixture(t, Config{})
		q := dnswire.NewQuery(1, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
		resp := f.cs.HandleQuery(q) // RD=0, cold cache
		if resp.RCode != dnswire.RCodeRefused {
			t.Errorf("rcode = %v, want REFUSED", resp.RCode)
		}
		if out := f.cs.Stats().QueriesOut; out != 0 {
			t.Errorf("RD=0 miss sent %d upstream queries, want 0", out)
		}
	})

	t.Run("hit", func(t *testing.T) {
		f := newFixture(t, Config{})
		f.resolveA(t, "www.ucla.edu.") // prime the cache
		out := f.cs.Stats().QueriesOut
		q := dnswire.NewQuery(2, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
		resp := f.cs.HandleQuery(q)
		if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 {
			t.Fatalf("resp = %v, want cached answer", resp)
		}
		if resp.Answer[0].Data.String() != "10.9.9.9" {
			t.Errorf("answer = %v", resp.Answer)
		}
		if got := f.cs.Stats().QueriesOut; got != out {
			t.Errorf("RD=0 hit sent %d upstream queries", got-out)
		}
	})

	t.Run("stale", func(t *testing.T) {
		f := newFixture(t, Config{ServeStale: 24 * time.Hour})
		f.resolveA(t, "www.ucla.edu.")
		f.clock.Advance(10 * time.Minute) // past the 300s record TTL
		out := f.cs.Stats().QueriesOut
		q := dnswire.NewQuery(3, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
		resp := f.cs.HandleQuery(q)
		if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 {
			t.Fatalf("resp = %v, want stale answer", resp)
		}
		if got := resp.Answer[0].TTL; got != 30 {
			t.Errorf("stale TTL = %d, want 30 (StaleServeTTL)", got)
		}
		if got := f.cs.Stats().QueriesOut; got != out {
			t.Errorf("RD=0 stale hit sent %d upstream queries", got-out)
		}
	})
}

// TestFrontendEchoesEDNS0 asserts the RFC 6891 contract: a response to a
// query carrying an OPT record carries one back advertising our payload
// size, and a response to a plain query does not grow one.
func TestFrontendEchoesEDNS0(t *testing.T) {
	f := newFixture(t, Config{})
	q := dnswire.NewQuery(1, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	q.SetEDNS0(1232)
	resp := f.cs.HandleQuery(q)
	size, ok := resp.EDNS0PayloadSize()
	if !ok {
		t.Fatal("response to an EDNS0 query carries no OPT")
	}
	if size != dnswire.DefaultEDNS0PayloadSize {
		t.Errorf("advertised payload = %d, want %d", size, dnswire.DefaultEDNS0PayloadSize)
	}

	plain := dnswire.NewQuery(2, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	plain.Flags.RecursionDesired = true
	if _, ok := f.cs.HandleQuery(plain).EDNS0PayloadSize(); ok {
		t.Error("response to a non-EDNS0 query grew an OPT")
	}
}

// TestFrontendEDNS0OverUDP drives the EDNS0 echo through a real UDP
// socket: the OPT record must survive the wire round-trip in both
// directions, not just the in-process message exchange.
func TestFrontendEDNS0OverUDP(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")

	srv := &transport.UDPServer{Handler: f.cs}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	u := &transport.UDP{Timeout: 2 * time.Second}
	q := dnswire.NewQuery(9, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	q.SetEDNS0(1232)
	resp, err := u.Exchange(context.Background(), transport.Addr(addr), q)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if len(resp.Answer) != 1 {
		t.Fatalf("answer = %v, want the cached A record", resp.Answer)
	}
	size, ok := resp.EDNS0PayloadSize()
	if !ok {
		t.Fatal("OPT did not survive the UDP round-trip")
	}
	if size != dnswire.DefaultEDNS0PayloadSize {
		t.Errorf("advertised payload = %d, want %d", size, dnswire.DefaultEDNS0PayloadSize)
	}

	plain := dnswire.NewQuery(10, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	plain.Flags.RecursionDesired = true
	resp, err = u.Exchange(context.Background(), transport.Addr(addr), plain)
	if err != nil {
		t.Fatalf("Exchange(plain): %v", err)
	}
	if _, ok := resp.EDNS0PayloadSize(); ok {
		t.Error("response to a non-EDNS0 query grew an OPT over UDP")
	}
}

// TestFrontendCacheOnlyMode covers the guard's degraded mode: RD=1
// queries are still answered from cache, and a miss sheds with SERVFAIL
// instead of recursing.
func TestFrontendCacheOnlyMode(t *testing.T) {
	f := newFixture(t, Config{})
	f.resolveA(t, "www.ucla.edu.")
	out := f.cs.Stats().QueriesOut

	q := dnswire.NewQuery(1, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	resp := f.cs.HandleQueryCacheOnly(q)
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answer) != 1 {
		t.Fatalf("resp = %v, want cached answer", resp)
	}

	miss := dnswire.NewQuery(2, dnswire.MustName("www.com."), dnswire.TypeA)
	miss.Flags.RecursionDesired = true
	resp = f.cs.HandleQueryCacheOnly(miss)
	if resp.RCode != dnswire.RCodeServFail {
		t.Errorf("miss rcode = %v, want SERVFAIL", resp.RCode)
	}
	if got := f.cs.Stats().QueriesOut; got != out {
		t.Errorf("cache-only mode sent %d upstream queries", got-out)
	}
}
