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
	c.PutNegative(name, dnswire.TypeA, dnswire.RCodeNXDomain, soaRR("victim.test.", 300))
	clk.Advance(45*time.Second + 500*time.Millisecond)
	rcode, soa, ok := c.GetNegative(name, dnswire.TypeA)
	if !ok || rcode != dnswire.RCodeNXDomain {
		t.Fatalf("GetNegative = %v, %v; want a live NXDOMAIN", rcode, ok)
	}
	if len(soa) != 1 || soa[0].TTL != 14 {
		t.Errorf("SOA = %v, want one record with TTL 14 (the entry's remaining lifetime)", soa)
	}
	if _, _, ok := c.GetNegative(name, dnswire.TypeAAAA); ok {
		t.Error("a negative for A answered AAAA")
	}
	clk.Advance(15 * time.Second)
	if _, _, ok := c.GetNegative(name, dnswire.TypeA); ok {
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
		c.PutNegative(dnswire.MustName(fmt.Sprintf("r%d.victim.test.", i)), dnswire.TypeA, dnswire.RCodeNXDomain, soa)
	}
	c.Put([]dnswire.RR{rrA("short.victim.test.", 30, "192.0.2.1")}, CredAnswer, false)
	if n := c.Stats().NegativeEntries; n != flood {
		t.Fatalf("negative cache holds %d entries after %d unique NXDOMAINs", n, flood)
	}

	clk.Advance(time.Minute + time.Second)
	fresh := dnswire.MustName("fresh.victim.test.")
	c.PutNegative(fresh, dnswire.TypeA, dnswire.RCodeNXDomain, soa)
	c.Put([]dnswire.RR{rrA("long.victim.test.", 3600, "192.0.2.2")}, CredAnswer, false)
	if n := c.Stats().NegativeEntries; n != flood+1 {
		t.Fatalf("lazy expiry reclaimed never-repeated keys: %d entries, want %d", n, flood+1)
	}
	c.SweepExpired()
	if s := c.Stats(); s.NegativeEntries != 1 || s.Entries != 1 || s.StaleEntries != 0 {
		t.Errorf("after the sweep: %+v; want only the live negative and the live RRset", s)
	}
	if _, _, ok := c.GetNegative(fresh, dnswire.TypeA); !ok {
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
		c.PutNegative(dnswire.MustName(fmt.Sprintf("old%d.victim.test.", i)), dnswire.TypeA, dnswire.RCodeNXDomain, soa)
	}
	clk.Advance(time.Minute + time.Second)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				name := dnswire.MustName(fmt.Sprintf("new%d-%d.victim.test.", g, i))
				c.PutNegative(name, dnswire.TypeA, dnswire.RCodeNXDomain, soa)
				if _, _, ok := c.GetNegative(name, dnswire.TypeA); !ok {
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
