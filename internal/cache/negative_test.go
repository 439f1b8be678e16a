package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/dnswire"
)

// soaRR is a zone's SOA as a negative answer carries it.
func soaRR(zone string, ttl uint32) []dnswire.RR {
	return []dnswire.RR{{Name: dnswire.MustName(zone), Class: dnswire.ClassIN, TTL: ttl,
		Data: dnswire.SOA{MName: dnswire.MustName("ns." + zone), RName: dnswire.MustName("admin." + zone), Minimum: ttl}}}
}

func TestNegativeLookupClampsAndRetires(t *testing.T) {
	c, clk := newTestCache(t, Config{NegativeTTL: time.Minute})
	name := dnswire.MustName("gone.victim.test.")
	c.PutNegative(name, dnswire.TypeA, dnswire.RCodeNXDomain, soaRR("victim.test.", 300), clk.Now())
	clk.Advance(45*time.Second + 500*time.Millisecond)
	rcode, soa, ok := c.GetNegative(name, dnswire.TypeA, clk.Now())
	if !ok || rcode != dnswire.RCodeNXDomain {
		t.Fatalf("GetNegative = %v, %v; want a live NXDOMAIN", rcode, ok)
	}
	if len(soa) != 1 || soa[0].TTL != 14 {
		t.Errorf("SOA = %v, want one record with TTL 14 (the entry's remaining lifetime)", soa)
	}
	if _, _, ok := c.GetNegative(name, dnswire.TypeAAAA, clk.Now()); ok {
		t.Error("a negative for A answered AAAA")
	}
	clk.Advance(15 * time.Second)
	if _, _, ok := c.GetNegative(name, dnswire.TypeA, clk.Now()); ok {
		t.Error("an expired negative was served")
	}
	if n := c.Stats().NegativeEntries; n != 0 {
		t.Errorf("NegativeEntries = %d after the lookup retired the expired entry, want 0", n)
	}
}

// TestSweepExpiredReclaimsNegativeCache is the random-subdomain flood:
// 10 000 names that do not exist, each asked once. Lazy expiry never sees
// those keys again, so only the sweep can reclaim them, in the same pass
// that drops expired RRsets, and it must leave live entries alone.
func TestSweepExpiredReclaimsNegativeCache(t *testing.T) {
	c, clk := newTestCache(t, Config{NegativeTTL: time.Minute})
	soa := soaRR("victim.test.", 300)
	const flood = 10000
	for i := 0; i < flood; i++ {
		c.PutNegative(dnswire.MustName(fmt.Sprintf("r%d.victim.test.", i)), dnswire.TypeA, dnswire.RCodeNXDomain, soa, clk.Now())
	}
	c.Put([]dnswire.RR{rrA("short.victim.test.", 30, "192.0.2.1")}, CredAnswer, false)
	if n := c.Stats().NegativeEntries; n != flood {
		t.Fatalf("negative cache holds %d entries after %d unique NXDOMAINs", n, flood)
	}

	clk.Advance(time.Minute + time.Second)
	fresh := dnswire.MustName("fresh.victim.test.")
	c.PutNegative(fresh, dnswire.TypeA, dnswire.RCodeNXDomain, soa, clk.Now())
	c.Put([]dnswire.RR{rrA("long.victim.test.", 3600, "192.0.2.2")}, CredAnswer, false)
	if n := c.Stats().NegativeEntries; n != flood+1 {
		t.Fatalf("lazy expiry reclaimed never-repeated keys: %d entries, want %d", n, flood+1)
	}
	c.SweepExpired()
	if s := c.Stats(); s.NegativeEntries != 1 || s.Entries != 1 || s.StaleEntries != 0 {
		t.Errorf("after the sweep: %+v; want only the live negative and the live RRset", s)
	}
	if _, _, ok := c.GetNegative(fresh, dnswire.TypeA, clk.Now()); !ok {
		t.Error("the sweep dropped a live negative entry")
	}
}

// TestSweepExpiredYieldsToQueries runs the sweep against concurrent
// negative stores and lookups across shards: under -race this is the
// check that they stay properly synchronised, and that everything expired
// before the sweep began is gone after it.
func TestSweepExpiredYieldsToQueries(t *testing.T) {
	c, clk := newTestCache(t, Config{NegativeTTL: time.Minute})
	soa := soaRR("victim.test.", 300)
	const old = 8192
	for i := 0; i < old; i++ {
		c.PutNegative(dnswire.MustName(fmt.Sprintf("old%d.victim.test.", i)), dnswire.TypeA, dnswire.RCodeNXDomain, soa, clk.Now())
	}
	clk.Advance(time.Minute + time.Second)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				name := dnswire.MustName(fmt.Sprintf("new%d-%d.victim.test.", g, i))
				c.PutNegative(name, dnswire.TypeA, dnswire.RCodeNXDomain, soa, clk.Now())
				if _, _, ok := c.GetNegative(name, dnswire.TypeA, clk.Now()); !ok {
					t.Errorf("%s: live entry lost while the sweep ran", name)
					return
				}
			}
		}()
	}
	c.SweepExpired()
	wg.Wait()

	if got, want := c.Stats().NegativeEntries, 4*2000; got != want {
		t.Errorf("negative cache holds %d entries, want the %d live ones and none of the %d expired", got, want, old)
	}
}

// TestEvictCountsEvictions: Evict, the discard of a zone whose servers
// all failed, is what Evictions counts; evicting an absent key is not.
func TestEvictCountsEvictions(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	c.Put([]dnswire.RR{rrNS("ucla.edu.", 3600, "ns.ucla.edu.")}, CredAuthority, true)
	c.Evict(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	c.Evict(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if got := c.Evictions(); got != 1 {
		t.Errorf("Evictions = %d, want 1", got)
	}
}

// TestStatsCountsNegativeBytes: ApproxBytes counts each negative answer as
// its owner name plus its SOA set's wire size, beside the RRsets' bytes.
func TestStatsCountsNegativeBytes(t *testing.T) {
	c, clk := newTestCache(t, Config{NegativeTTL: time.Minute})
	c.Put([]dnswire.RR{rrA("www.victim.test.", 300, "192.0.2.1")}, CredAnswer, false)
	positive := c.Stats().ApproxBytes
	if positive == 0 {
		t.Fatal("an RRset counts no bytes")
	}
	want := positive
	for _, n := range []string{"a.victim.test.", "bb.victim.test.", "ccc.other.test."} {
		name := dnswire.MustName(n)
		soa := soaRR(name.Parent().String(), 300)
		c.PutNegative(name, dnswire.TypeA, dnswire.RCodeNXDomain, soa, clk.Now())
		want += len(name) + len(soa[0].Name) + 10 + dnswire.RDataLen(soa[0].Data)
	}
	if s := c.Stats(); s.NegativeEntries != 3 || s.ApproxBytes != want {
		t.Errorf("NegativeEntries = %d, ApproxBytes = %d; want 3 and %d", s.NegativeEntries, s.ApproxBytes, want)
	}
}

// TestStatsCountsReplyBytes: a reply kept on an entry counts in
// ApproxBytes by its length, and replacing the entry drops those bytes
// with it.
func TestStatsCountsReplyBytes(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	name := dnswire.MustName("www.victim.test.")
	c.Put([]dnswire.RR{rrA("www.victim.test.", 300, "192.0.2.1")}, CredAnswer, false)
	bare := c.Stats().ApproxBytes
	c.Peek(name, dnswire.TypeA).SetReply(1, &Reply{Wire: make([]byte, 77)})
	c.Peek(name, dnswire.TypeA).SetReply(3, &Reply{Wire: make([]byte, 88)})
	if got := c.Stats().ApproxBytes; got != bare+77+88 {
		t.Errorf("ApproxBytes with two replies kept = %d, want %d", got, bare+77+88)
	}
	c.Put([]dnswire.RR{rrA("www.victim.test.", 300, "192.0.2.2")}, CredAnswer, false)
	if got := c.Stats().ApproxBytes; got != bare {
		t.Errorf("ApproxBytes after the entry was replaced = %d, want %d", got, bare)
	}
}
