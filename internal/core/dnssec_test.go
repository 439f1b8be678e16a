package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"resilientdns/internal/authserver"
	"resilientdns/internal/dnssec"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

// detRand yields deterministic keys for reproducible tests.
type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

// signedFixture is a fully signed hierarchy: root → edu → ucla.edu, plus
// an unsigned zone com → plain.com for the insecure-delegation path.
type signedFixture struct {
	clock    *simclock.Virtual
	net      *simnet.Network
	cs       *CachingServer
	anchors  []dnswire.RR
	uclaZone *zone.Zone
	signers  map[string]*dnssec.Signer
}

func newSignedFixture(t *testing.T, tamper func(f *signedFixture)) *signedFixture {
	t.Helper()
	f := &signedFixture{signers: make(map[string]*dnssec.Signer)}
	f.clock = simclock.NewVirtual(epoch)
	f.net = simnet.New(f.clock)
	f.net.RTT = 0
	f.net.Timeout = 0

	inception := epoch.Add(-time.Hour)
	expiration := epoch.Add(365 * 24 * time.Hour)
	signer := func(zoneName string, seed int64) *dnssec.Signer {
		s, err := dnssec.GenerateSigner(dnswire.MustName(zoneName), 3600, detRand{rand.New(rand.NewSource(seed))})
		if err != nil {
			t.Fatalf("GenerateSigner: %v", err)
		}
		f.signers[zoneName] = s
		return s
	}

	// Leaf: ucla.edu (signed).
	ucla := zone.New(dnswire.MustName("ucla.edu."))
	ucla.MustAdd(rrNS("ucla.edu.", 3600, "ns1.ucla.edu."))
	ucla.MustAdd(rrA("ns1.ucla.edu.", 3600, "10.0.2.1"))
	ucla.MustAdd(rrA("www.ucla.edu.", 300, "10.9.9.9"))
	uclaSigner := signer("ucla.edu.", 101)
	uclaDS, err := dnssec.SignZone(ucla, uclaSigner, inception, expiration)
	if err != nil {
		t.Fatalf("sign ucla: %v", err)
	}
	f.uclaZone = ucla

	// Unsigned leaf: plain.com.
	plain := zone.New(dnswire.MustName("plain.com."))
	plain.MustAdd(rrNS("plain.com.", 3600, "ns1.plain.com."))
	plain.MustAdd(rrA("ns1.plain.com.", 3600, "10.0.4.1"))
	plain.MustAdd(rrA("www.plain.com.", 300, "10.4.4.4"))

	// TLD: edu (signed, delegates ucla.edu with DS).
	edu := zone.New(dnswire.MustName("edu."))
	edu.MustAdd(rrNS("edu.", 86400, "ns1.edu."))
	edu.MustAdd(rrA("ns1.edu.", 86400, "10.0.1.1"))
	edu.MustAdd(rrNS("ucla.edu.", 3600, "ns1.ucla.edu."))
	edu.MustAdd(rrA("ns1.ucla.edu.", 3600, "10.0.2.1"))
	edu.MustAdd(uclaDS)
	eduSigner := signer("edu.", 102)
	eduDS, err := dnssec.SignZone(edu, eduSigner, inception, expiration)
	if err != nil {
		t.Fatalf("sign edu: %v", err)
	}

	// TLD: com (signed, delegates plain.com WITHOUT a DS — insecure).
	com := zone.New(dnswire.MustName("com."))
	com.MustAdd(rrNS("com.", 86400, "ns1.com."))
	com.MustAdd(rrA("ns1.com.", 86400, "10.0.3.1"))
	com.MustAdd(rrNS("plain.com.", 3600, "ns1.plain.com."))
	com.MustAdd(rrA("ns1.plain.com.", 3600, "10.0.4.1"))
	comSigner := signer("com.", 103)
	comDS, err := dnssec.SignZone(com, comSigner, inception, expiration)
	if err != nil {
		t.Fatalf("sign com: %v", err)
	}

	// Root (signed, anchors the chain).
	root := zone.New(dnswire.Root)
	root.MustAdd(rrNS(".", 3600000, "a.root-servers.net."))
	root.MustAdd(rrA("a.root-servers.net.", 3600000, "10.0.0.1"))
	root.MustAdd(rrNS("edu.", 86400, "ns1.edu."))
	root.MustAdd(rrA("ns1.edu.", 86400, "10.0.1.1"))
	root.MustAdd(rrNS("com.", 86400, "ns1.com."))
	root.MustAdd(rrA("ns1.com.", 86400, "10.0.3.1"))
	root.MustAdd(eduDS)
	root.MustAdd(comDS)
	rootSigner := signer(".", 104)
	if _, err := dnssec.SignZone(root, rootSigner, inception, expiration); err != nil {
		t.Fatalf("sign root: %v", err)
	}
	f.anchors = []dnswire.RR{rootSigner.KeyRR()}

	if tamper != nil {
		tamper(f)
	}

	reg := func(addr, zoneName string, z *zone.Zone) {
		f.net.Register(&simnet.Host{
			Addr: transport.Addr(addr), Zone: dnswire.MustName(zoneName),
			Handler: authserver.New(z),
		})
	}
	reg("10.0.0.1", ".", root)
	reg("10.0.1.1", "edu.", edu)
	reg("10.0.2.1", "ucla.edu.", ucla)
	reg("10.0.3.1", "com.", com)
	reg("10.0.4.1", "plain.com.", plain)

	cs, err := NewCachingServer(Config{
		Transport:    f.net,
		Clock:        f.clock,
		RootHints:    []ServerRef{{Host: dnswire.MustName("a.root-servers.net."), Addr: "10.0.0.1"}},
		RefreshTTL:   true,
		TrustAnchors: f.anchors,
	})
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}
	f.cs = cs
	return f
}

func TestDNSSECValidResolution(t *testing.T) {
	f := newSignedFixture(t, nil)
	res, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(res.Answer) == 0 || res.Answer[0].Data.String() != "10.9.9.9" {
		t.Errorf("answer = %v", res.Answer)
	}
	if secure, known := f.cs.Resolver().SecureZone(dnswire.MustName("ucla.edu.")); !secure || !known {
		t.Errorf("ucla.edu. not marked secure (secure=%v known=%v)", secure, known)
	}
}

func TestDNSSECInsecureZonePasses(t *testing.T) {
	f := newSignedFixture(t, nil)
	res, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.plain.com."), dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve of insecure zone: %v", err)
	}
	if len(res.Answer) == 0 {
		t.Errorf("answer = %v", res.Answer)
	}
	if secure, known := f.cs.Resolver().SecureZone(dnswire.MustName("plain.com.")); secure || !known {
		t.Errorf("plain.com. should be known-insecure (secure=%v known=%v)", secure, known)
	}
}

func TestDNSSECRejectsTamperedAnswer(t *testing.T) {
	f := newSignedFixture(t, func(f *signedFixture) {
		// After signing, the attacker swaps the www record: the RRSIG in
		// the zone no longer covers the data. (Add bypasses re-signing.)
		f.uclaZone.MustAdd(rrA("www.ucla.edu.", 300, "10.6.6.6"))
	})
	_, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	if err == nil {
		t.Fatal("tampered answer resolved under validation")
	}
}

func TestDNSSECNotValidatingAcceptsTamper(t *testing.T) {
	// The same tamper passes when validation is off, proving the
	// validator is what rejects it.
	f := newSignedFixture(t, func(f *signedFixture) {
		f.uclaZone.MustAdd(rrA("www.ucla.edu.", 300, "10.6.6.6"))
	})
	cs, err := NewCachingServer(Config{
		Transport: f.net,
		Clock:     f.clock,
		RootHints: []ServerRef{{Host: dnswire.MustName("a.root-servers.net."), Addr: "10.0.0.1"}},
	})
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}
	if _, err := cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA); err != nil {
		t.Fatalf("non-validating Resolve: %v", err)
	}
}

func TestDNSSECChainCachedAcrossQueries(t *testing.T) {
	f := newSignedFixture(t, nil)
	ctx := context.Background()
	if _, err := f.cs.Resolve(ctx, dnswire.MustName("www.ucla.edu."), dnswire.TypeA); err != nil {
		t.Fatalf("first Resolve: %v", err)
	}
	before := f.cs.Stats().QueriesOut
	// A sibling query in the same zone must not rebuild the chain.
	if _, err := f.cs.Resolve(ctx, dnswire.MustName("ns1.ucla.edu."), dnswire.TypeA); err != nil {
		t.Fatalf("second Resolve: %v", err)
	}
	sent := f.cs.Stats().QueriesOut - before
	if sent > 1 {
		t.Errorf("sibling query sent %d queries; trust chain not cached", sent)
	}
}

func TestDNSSECInfraRecordsMarked(t *testing.T) {
	// §6: the DS and DNSKEY sets are infrastructure records; the cache
	// must treat them exactly like NS and glue so refresh/renewal extend
	// to them.
	f := newSignedFixture(t, nil)
	if _, err := f.cs.Resolve(context.Background(), dnswire.MustName("www.ucla.edu."), dnswire.TypeA); err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	ds := f.cs.Cache().Peek(dnswire.MustName("ucla.edu."), dnswire.TypeDS)
	if ds == nil || !ds.Infra() {
		t.Errorf("DS entry = %+v, want cached infrastructure", ds)
	}
	key := f.cs.Cache().Peek(dnswire.MustName("ucla.edu."), dnswire.TypeDNSKEY)
	if key == nil || !key.Infra() {
		t.Errorf("DNSKEY entry = %+v, want cached infrastructure", key)
	}
}
