package cache

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/race"
	"resilientdns/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func rrNS(name string, ttl uint32, host string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.NS{Host: dnswire.MustName(host)},
	}
}

func rrA(name string, ttl uint32, ip string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.A{Addr: netip.MustParseAddr(ip)},
	}
}

func newTestCache(t *testing.T, cfg Config) (*Cache, *simclock.Virtual) {
	t.Helper()
	clk := simclock.NewVirtual(epoch)
	cfg.Clock = clk
	return New(cfg), clk
}

func TestPutGet(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	set := []dnswire.RR{rrNS("ucla.edu.", 3600, "ns1.ucla.edu.")}
	c.Put(set, CredReferral, true)
	e := c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if e == nil {
		t.Fatal("Get returned nil after Put")
	}
	if e.OrigTTL() != time.Hour {
		t.Errorf("OrigTTL = %v, want 1h", e.OrigTTL())
	}
}

func TestExpiry(t *testing.T) {
	c, clk := newTestCache(t, Config{})
	c.Put([]dnswire.RR{rrA("www.edu.", 300, "192.0.2.1")}, CredAnswer, false)
	clk.Advance(299 * time.Second)
	if c.Get(dnswire.MustName("www.edu."), dnswire.TypeA) == nil {
		t.Fatal("entry expired early")
	}
	clk.Advance(2 * time.Second)
	if c.Get(dnswire.MustName("www.edu."), dnswire.TypeA) != nil {
		t.Fatal("entry survived past TTL")
	}
}

func TestVanillaDoesNotRefreshTTL(t *testing.T) {
	c, clk := newTestCache(t, Config{RefreshInfraTTL: false})
	set := []dnswire.RR{rrNS("ucla.edu.", 3600, "ns1.ucla.edu.")}
	c.Put(set, CredAuthority, true)
	clk.Advance(30 * time.Minute)
	c.Put(set, CredAuthority, true) // same copy arrives again
	clk.Advance(31 * time.Minute)   // total 61 min > TTL
	if c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS) != nil {
		t.Fatal("vanilla cache refreshed the TTL")
	}
}

func TestRefreshResetsInfraTTL(t *testing.T) {
	c, clk := newTestCache(t, Config{RefreshInfraTTL: true})
	set := []dnswire.RR{rrNS("ucla.edu.", 3600, "ns1.ucla.edu.")}
	c.Put(set, CredAuthority, true)
	clk.Advance(30 * time.Minute)
	c.Put(set, CredAuthority, true) // refresh
	clk.Advance(31 * time.Minute)   // 61 min after first Put, 31 after refresh
	if c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS) == nil {
		t.Fatal("refresh did not reset the TTL")
	}
	clk.Advance(30 * time.Minute) // 61 min after refresh
	if c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS) != nil {
		t.Fatal("entry survived past refreshed TTL")
	}
}

func TestRefreshDoesNotApplyToNonInfra(t *testing.T) {
	c, clk := newTestCache(t, Config{RefreshInfraTTL: true})
	set := []dnswire.RR{rrA("www.edu.", 3600, "192.0.2.1")}
	c.Put(set, CredAnswer, false)
	clk.Advance(30 * time.Minute)
	c.Put(set, CredAnswer, false)
	clk.Advance(31 * time.Minute)
	if c.Get(dnswire.MustName("www.edu."), dnswire.TypeA) != nil {
		t.Fatal("non-infrastructure record was refreshed")
	}
}

func TestCredibilityUpgradeReplaces(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	glue := []dnswire.RR{rrNS("ucla.edu.", 600, "ns-old.ucla.edu.")}
	c.Put(glue, CredReferral, true)
	child := []dnswire.RR{rrNS("ucla.edu.", 86400, "ns-new.ucla.edu.")}
	c.Put(child, CredAuthority, true)

	e := c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if e == nil {
		t.Fatal("entry missing")
	}
	if e.Cred() != CredAuthority {
		t.Errorf("Cred = %v, want CredAuthority", e.Cred())
	}
	if e.RRs[0].Data.(dnswire.NS).Host != "ns-new.ucla.edu." {
		t.Errorf("child data did not replace parent glue: %v", e.RRs)
	}
}

func TestLowerCredibilityIgnored(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	child := []dnswire.RR{rrNS("ucla.edu.", 86400, "ns-new.ucla.edu.")}
	c.Put(child, CredAuthority, true)
	glue := []dnswire.RR{rrNS("ucla.edu.", 600, "ns-old.ucla.edu.")}
	c.Put(glue, CredReferral, true)

	e := c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if e.RRs[0].Data.(dnswire.NS).Host != "ns-new.ucla.edu." {
		t.Errorf("lower-credibility data replaced child copy: %v", e.RRs)
	}
}

func TestLowerCredibilityDoesNotRefresh(t *testing.T) {
	// With refresh on, a parent referral copy must NOT reset the TTL of
	// the child's copy: refresh uses data from the zone's own servers.
	c, clk := newTestCache(t, Config{RefreshInfraTTL: true})
	child := []dnswire.RR{rrNS("ucla.edu.", 3600, "ns.ucla.edu.")}
	c.Put(child, CredAuthority, true)
	clk.Advance(30 * time.Minute)
	glue := []dnswire.RR{rrNS("ucla.edu.", 3600, "ns.ucla.edu.")}
	c.Put(glue, CredReferral, true)
	e := c.Peek(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if e == nil {
		t.Fatal("entry missing")
	}
	if got, want := e.Expires(), epoch.Add(time.Hour); !got.Equal(want) {
		// Refresh from a referral is acceptable per the paper's model
		// (any response carrying the IRR refreshes it), but our stricter
		// rule keeps the child-credibility expiry. Assert the stricter
		// behaviour so a regression is caught either way.
		t.Errorf("Expires = %v, want %v (no refresh from lower credibility)", got, want)
	}
}

func TestMaxTTLClamp(t *testing.T) {
	c, clk := newTestCache(t, Config{MaxTTL: 24 * time.Hour})
	huge := []dnswire.RR{rrNS("ucla.edu.", 30*86400, "ns.ucla.edu.")}
	c.Put(huge, CredAuthority, true)
	clk.Advance(25 * time.Hour)
	if c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS) != nil {
		t.Fatal("TTL clamp not applied")
	}
}

func TestDefaultMaxTTLIsSevenDays(t *testing.T) {
	c, clk := newTestCache(t, Config{})
	huge := []dnswire.RR{rrNS("ucla.edu.", 30*86400, "ns.ucla.edu.")}
	c.Put(huge, CredAuthority, true)
	clk.Advance(6 * 24 * time.Hour)
	if c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS) == nil {
		t.Fatal("entry expired before 7 days")
	}
	clk.Advance(2 * 24 * time.Hour)
	if c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS) != nil {
		t.Fatal("entry survived past the 7-day clamp")
	}
}

func TestGapObservation(t *testing.T) {
	var gaps []time.Duration
	var gapKeys []Key
	c, clk := newTestCache(t, Config{
		OnGap: func(key Key, gap, _ time.Duration) {
			gaps = append(gaps, gap)
			gapKeys = append(gapKeys, key)
		},
	})
	c.Put([]dnswire.RR{rrNS("ucla.edu.", 3600, "ns.ucla.edu.")}, CredAuthority, true)
	clk.Advance(3 * time.Hour) // entry expired 2h ago
	c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if len(gaps) != 1 {
		t.Fatalf("observed %d gaps, want 1", len(gaps))
	}
	if gaps[0] != 2*time.Hour {
		t.Errorf("gap = %v, want 2h", gaps[0])
	}
	if gapKeys[0].Type != dnswire.TypeNS {
		t.Errorf("gap key = %v", gapKeys[0])
	}
	// The tombstone is consumed: a second Get records nothing.
	c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if len(gaps) != 1 {
		t.Errorf("tombstone not consumed: %d gaps", len(gaps))
	}
}

// TestTombstonesOnlyForGapObserver: the water-torture shape — 1000
// never-repeated ten-second names, expired and swept. Without a gap
// observer nothing may be left behind (a tombstone is deleted only when
// its own key comes back, so in a live server each one was a leak);
// with one, every expiry still reports its Fig. 3 gap exactly once.
func TestTombstonesOnlyForGapObserver(t *testing.T) {
	const n = 1000
	tombstones := func(c *Cache) (total int) {
		for i := range c.shards {
			total += len(c.shards[i].tombstones)
		}
		return total
	}
	for _, observe := range []bool{false, true} {
		gaps := 0
		cfg := Config{}
		if observe {
			cfg.OnGap = func(_ Key, gap, _ time.Duration) {
				if gap != 20*time.Second {
					t.Errorf("gap = %v, want 20s", gap)
				}
				gaps++
			}
		}
		c, clk := newTestCache(t, cfg)
		for i := 0; i < n; i++ {
			c.Put([]dnswire.RR{rrA(fmt.Sprintf("h%d.example.", i), 10, "192.0.2.1")}, CredAnswer, false)
		}
		clk.Advance(30 * time.Second)
		c.SweepExpired()
		want := 0
		if observe {
			want = n
		}
		if st := c.Stats(); st.Entries != 0 || st.StaleEntries != 0 || tombstones(c) != want {
			t.Errorf("OnGap set=%v: after sweep entries=%d stale=%d tombstones=%d, want 0 0 %d",
				observe, st.Entries, st.StaleEntries, tombstones(c), want)
		}
		for round := 0; round < 2; round++ {
			for i := 0; i < n; i++ {
				if c.Get(dnswire.MustName(fmt.Sprintf("h%d.example.", i)), dnswire.TypeA) != nil {
					t.Fatalf("expired entry h%d still served", i)
				}
			}
		}
		if gaps != want || tombstones(c) != 0 {
			t.Errorf("OnGap set=%v: %d gaps reported, %d tombstones left, want %d and 0",
				observe, gaps, tombstones(c), want)
		}
	}
}

func TestGapObservedOnPutAfterExpiry(t *testing.T) {
	var gaps []time.Duration
	c, clk := newTestCache(t, Config{
		OnGap: func(_ Key, gap, _ time.Duration) { gaps = append(gaps, gap) },
	})
	set := []dnswire.RR{rrNS("ucla.edu.", 3600, "ns.ucla.edu.")}
	c.Put(set, CredAuthority, true)
	clk.Advance(5 * time.Hour)
	c.Put(set, CredAuthority, true) // re-learned 4h after expiry
	if len(gaps) != 1 || gaps[0] != 4*time.Hour {
		t.Errorf("gaps = %v, want [4h]", gaps)
	}
}

// TestProbeKeepsNoKey: Probe views its key's bytes in place, so it must
// leave nothing keyed by them. An expired entry probed by a buffer that is
// then overwritten is still found, retired and reported by a Get of the
// real name, the gap exactly once; no entry or tombstone was keyed by the
// buffer.
func TestProbeKeepsNoKey(t *testing.T) {
	var gaps []time.Duration
	c, clk := newTestCache(t, Config{
		KeepStale: time.Hour,
		OnGap:     func(_ Key, gap, _ time.Duration) { gaps = append(gaps, gap) },
	})
	name := dnswire.MustName("www.ucla.edu.")
	c.Put([]dnswire.RR{rrA("www.ucla.edu.", 60, "192.0.2.1")}, CredAnswer, false)
	buf := []byte(name)
	if c.Probe(buf, dnswire.TypeA) == nil {
		t.Fatal("Probe misses a live entry")
	}
	clk.Advance(2 * time.Minute)
	if c.Probe(buf, dnswire.TypeA) != nil {
		t.Fatal("Probe returns an expired entry")
	}
	copy(buf, "xxx.xxxx.xxx.")
	for i := range c.shards {
		sh := &c.shards[i]
		sh.entries.visit(func(_ int, e *Entry) bool {
			if e.Key().Name != name {
				t.Errorf("an entry is keyed %q", e.Key().Name)
			}
			return true
		})
		for key := range sh.tombstones {
			t.Errorf("a tombstone is keyed %q before any Get", key.Name)
		}
	}
	if c.Get(name, dnswire.TypeA) != nil {
		t.Error("Get returns the expired entry")
	}
	c.Get(name, dnswire.TypeA)
	if len(gaps) != 1 || gaps[0] != time.Minute {
		t.Errorf("gaps = %v, want [1m0s]", gaps)
	}
	if e := c.GetStale(name, dnswire.TypeA); e == nil || e.Key().Name != name {
		t.Errorf("the retired entry is not retained as stale under its name: %v", e)
	}
}

func TestEvictLeavesNoTombstone(t *testing.T) {
	var gaps int
	c, clk := newTestCache(t, Config{
		OnGap: func(Key, time.Duration, time.Duration) { gaps++ },
	})
	c.Put([]dnswire.RR{rrNS("ucla.edu.", 60, "ns.ucla.edu.")}, CredAuthority, true)
	c.Evict(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	clk.Advance(time.Hour)
	c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS)
	if gaps != 0 {
		t.Errorf("eviction left a tombstone (%d gaps)", gaps)
	}
}

func TestExtend(t *testing.T) {
	c, clk := newTestCache(t, Config{})
	c.Put([]dnswire.RR{rrNS("ucla.edu.", 3600, "ns.ucla.edu.")}, CredAuthority, true)
	clk.Advance(50 * time.Minute)
	if !c.Extend(dnswire.MustName("ucla.edu."), dnswire.TypeNS) {
		t.Fatal("Extend returned false")
	}
	clk.Advance(50 * time.Minute) // 100 min total, 50 since extend
	if c.Get(dnswire.MustName("ucla.edu."), dnswire.TypeNS) == nil {
		t.Fatal("Extend did not reset expiry")
	}
	if c.Extend(dnswire.MustName("missing."), dnswire.TypeNS) {
		t.Error("Extend of missing entry returned true")
	}
}

func TestSweepAndStats(t *testing.T) {
	c, clk := newTestCache(t, Config{})
	c.Put([]dnswire.RR{
		rrNS("ucla.edu.", 3600, "ns1.ucla.edu."),
		rrNS("ucla.edu.", 3600, "ns2.ucla.edu."),
	}, CredAuthority, true)
	c.Put([]dnswire.RR{rrA("ns1.ucla.edu.", 3600, "192.0.2.1")}, CredAuthority, true)
	c.Put([]dnswire.RR{rrA("www.ucla.edu.", 60, "192.0.2.2")}, CredAnswer, false)

	s := c.Stats()
	if s.Entries != 3 || s.Records != 4 || s.Zones != 1 || s.InfraEntries != 2 {
		t.Errorf("Stats = %+v", s)
	}

	clk.Advance(2 * time.Minute)
	c.SweepExpired()
	s = c.Stats()
	if s.Entries != 2 || s.Records != 3 {
		t.Errorf("Stats after sweep = %+v", s)
	}
}

func TestInfraExpiriesSorted(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	c.Put([]dnswire.RR{rrNS("b.edu.", 7200, "ns.b.edu.")}, CredAuthority, true)
	c.Put([]dnswire.RR{rrNS("a.edu.", 3600, "ns.a.edu.")}, CredAuthority, true)
	c.Put([]dnswire.RR{rrA("ns.a.edu.", 3600, "192.0.2.1")}, CredAuthority, true) // not NS
	got := c.InfraExpiries()
	if len(got) != 2 {
		t.Fatalf("InfraExpiries = %v", got)
	}
	if got[0].Zone != "a.edu." || got[1].Zone != "b.edu." {
		t.Errorf("order = %v", got)
	}
}

func TestRemainingTTL(t *testing.T) {
	c, clk := newTestCache(t, Config{})
	c.Put([]dnswire.RR{rrA("www.edu.", 300, "192.0.2.1")}, CredAnswer, false)
	clk.Advance(100 * time.Second)
	e := c.Get(dnswire.MustName("www.edu."), dnswire.TypeA)
	if got := e.RemainingTTL(clk.Now()); got != 200 {
		t.Errorf("RemainingTTL = %d, want 200", got)
	}
	rrs := e.RRsWithRemainingTTL(clk.Now())
	if rrs[0].TTL != 200 {
		t.Errorf("decremented TTL = %d, want 200", rrs[0].TTL)
	}
	// The cached copy keeps its original TTL.
	if e.RRs[0].TTL != 300 {
		t.Errorf("cached TTL mutated to %d", e.RRs[0].TTL)
	}
}

// TestPropertyCacheNeverServesExpired drives random Put/Get/advance
// sequences and asserts the core invariant: Get never returns an entry
// whose expiry has passed.
func TestPropertyCacheNeverServesExpired(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		clk := simclock.NewVirtual(epoch)
		c := New(Config{Clock: clk, RefreshInfraTTL: r.Intn(2) == 0})
		names := []string{"a.edu.", "b.edu.", "c.com.", "d.org."}
		for i := 0; i < 200; i++ {
			switch r.Intn(3) {
			case 0:
				name := names[r.Intn(len(names))]
				ttl := uint32(1 + r.Intn(7200))
				cred := Credibility(1 + r.Intn(3))
				c.Put([]dnswire.RR{rrNS(name, ttl, "ns."+name)}, cred, r.Intn(2) == 0)
			case 1:
				name := names[r.Intn(len(names))]
				e := c.Get(dnswire.MustName(name), dnswire.TypeNS)
				if e != nil && !e.Expires().After(clk.Now()) {
					return false
				}
			default:
				clk.Advance(time.Duration(r.Intn(3600)) * time.Second)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCredibilityMonotone asserts that a surviving entry's
// credibility never decreases across random Puts.
func TestPropertyCredibilityMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		clk := simclock.NewVirtual(epoch)
		c := New(Config{Clock: clk})
		name := dnswire.MustName("z.edu.")
		last := Credibility(0)
		for i := 0; i < 100; i++ {
			cred := Credibility(1 + r.Intn(3))
			c.Put([]dnswire.RR{rrNS("z.edu.", 86400, "ns.z.edu.")}, cred, true)
			e := c.Peek(name, dnswire.TypeNS)
			if e == nil {
				return false
			}
			if e.Cred() < last {
				return false
			}
			last = e.Cred()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUnboundedByDefault(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	for i := 0; i < 500; i++ {
		c.Put([]dnswire.RR{rrA(fmt.Sprintf("h%d.edu.", i), 3600, "192.0.2.1")}, CredAnswer, false)
	}
	if c.Len() != 500 {
		t.Errorf("Len = %d, want 500", c.Len())
	}
}

// TestStatsAddSumsEveryField fills every field of two Stats with distinct
// values by reflection, so a field added to the type and forgotten in Add
// fails here.
// TestStatsCountsZonesByLifetimeLeft: the coverage counts are cumulative
// (a zone with 30 h left is in all four) and read the cache's clock, so
// they fall as it advances.
func TestStatsCountsZonesByLifetimeLeft(t *testing.T) {
	c, clk := newTestCache(t, Config{})
	for i, hours := range []uint32{1, 4, 8, 13, 30} {
		c.Put([]dnswire.RR{rrNS(fmt.Sprintf("z%d.edu.", i), hours*3600, "ns.edu.")}, CredReferral, true)
	}
	c.Put([]dnswire.RR{rrA("www.z4.edu.", 30*3600, "192.0.2.1")}, CredAnswer, false)
	left := func() [4]int {
		s := c.Stats()
		return [4]int{s.Zones3hLeft, s.Zones6hLeft, s.Zones12hLeft, s.Zones24hLeft}
	}
	if got, want := left(), [4]int{4, 3, 2, 1}; got != want {
		t.Errorf("at the start: zones with 3/6/12/24 h left = %v, want %v", got, want)
	}
	clk.Advance(2 * time.Hour) // 1h gone; 4h→2h, 8h→6h (at least 6 h counts), 13h→11h, 30h→28h
	if got, want := left(), [4]int{3, 3, 1, 1}; got != want {
		t.Errorf("two hours on: zones with 3/6/12/24 h left = %v, want %v", got, want)
	}
}

func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(int64(i + 1))
		vb.Field(i).SetInt(int64(100 * (i + 1)))
	}
	sum := reflect.ValueOf(a.Add(b))
	for i := 0; i < sum.NumField(); i++ {
		if got, want := sum.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", sum.Type().Field(i).Name, got, want)
		}
	}
}

// TestStatsAllocatesNothing: Stats runs on every -stats tick and every
// /debug/stats scrape, over every cached record, under shard read locks;
// it estimates sizes without formatting a record (it once built each
// record's presentation string).
func TestStatsAllocatesNothing(t *testing.T) {
	c, _ := newTestCache(t, Config{})
	for i := 0; i < 1000; i++ {
		c.Put([]dnswire.RR{rrA(fmt.Sprintf("h%d.example.", i), 3600, "192.0.2.1")}, CredAnswer, false)
	}
	var st Stats
	if allocs := testing.AllocsPerRun(5, func() { st = c.Stats() }); allocs != 0 && !race.Enabled {
		t.Errorf("Stats over 1000 entries allocates %.0f objects, want 0", allocs)
	}
	// "hN.example." (11–14 bytes) + 10 header bytes + 4 of address.
	if st.Entries != 1000 || st.ApproxBytes < 1000*25 || st.ApproxBytes > 1000*28 {
		t.Errorf("Stats = %+v, want 1000 entries of 25–28 bytes", st)
	}
}

// TestRRSetEqualMatchesPresentationForm: the record-by-record match of
// small A, AAAA and NS sets agrees with comparing the sets' sorted
// presentation forms, over random sets drawn from a few values (so
// duplicates, reorderings and near misses are common), and allocates
// nothing.
func TestRRSetEqualMatchesPresentationForm(t *testing.T) {
	byString := func(a, b []dnswire.RR) bool {
		as, bs := make([]string, len(a)), make([]string, len(b))
		for i := range a {
			as[i] = a[i].Data.String()
		}
		for i := range b {
			bs[i] = b[i].Data.String()
		}
		sort.Strings(as)
		sort.Strings(bs)
		return reflect.DeepEqual(as, bs)
	}
	rng := rand.New(rand.NewSource(1))
	set := func(typ, n int) []dnswire.RR {
		out := make([]dnswire.RR, n)
		for i := range out {
			v := rng.Intn(3)
			switch typ {
			case 0:
				out[i] = rrA("x.", 60, fmt.Sprintf("192.0.2.%d", v))
			case 1:
				out[i] = dnswire.RR{Name: "x.", Class: dnswire.ClassIN, TTL: 60,
					Data: dnswire.AAAA{Addr: netip.MustParseAddr(fmt.Sprintf("2001:db8::%d", v))}}
			case 2:
				out[i] = rrNS("x.", 60, fmt.Sprintf("ns%d.x.", v))
			default:
				out[i] = dnswire.RR{Name: "x.", Class: dnswire.ClassIN, TTL: 60,
					Data: dnswire.Unknown{TypeCode: dnswire.TypeA, Raw: []byte{byte(v)}}}
			}
		}
		return out
	}
	for i := 0; i < 5000; i++ {
		n := 1 + rng.Intn(smallSet+2)
		a, b := set(rng.Intn(4), n), set(rng.Intn(4), n)
		if rng.Intn(2) == 0 {
			b = append([]dnswire.RR(nil), a...)
			rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		}
		if got, want := rrsetEqual(a, b), byString(a, b); got != want {
			t.Fatalf("rrsetEqual(%v, %v) = %v, the presentation forms say %v", a, b, got, want)
		}
	}

	ns := []dnswire.RR{rrNS("x.", 60, "a.x."), rrNS("x.", 60, "b.x."), rrNS("x.", 60, "c.x.")}
	rev := []dnswire.RR{ns[2], ns[1], ns[0]}
	if allocs := testing.AllocsPerRun(100, func() { rrsetEqual(ns, rev) }); allocs != 0 && !race.Enabled {
		t.Errorf("comparing two 3-record NS sets allocates %.0f times, want 0", allocs)
	}
}
