package cache

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"resilientdns/internal/dnswire"
)

// TestEntrySize pins the per-RRset bookkeeping: an Entry is the set's
// slice header, two stamps and one word, the 48-byte size class.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n > 48 {
		t.Errorf("unsafe.Sizeof(Entry{}) = %d, want ≤ 48", n)
	}
}

// heapPerRecord is the live heap one record costs: fill stores n records
// into a fresh cache, and the HeapAlloc and HeapObjects deltas across it,
// each side taken after two GCs, are divided by n. Everything fill
// allocates and the cache does not keep is garbage by the second reading.
func heapPerRecord(t *testing.T, n int, cfg Config, fill func(c *Cache, i int)) (bytes, objects float64) {
	t.Helper()
	c, _ := newTestCache(t, cfg)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fill(c, i)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n),
		float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / float64(n)
}

// TestRecordHeapBytes pins what one cached record holds live: a single-A
// RRset (owner name, record array, boxed address, entry, table slot), the
// IRRs the paper keeps for one zone (its two-record NS set and the two
// glue A sets, per zone), and a random-subdomain negative of one zone
// (owner name, map slot, and the SOA set with its two names, a fresh copy
// per answer as the resolver hands it over).
func TestRecordHeapBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	const n = 20000
	cases := []struct {
		name string
		max  float64
		cfg  Config
		fill func(c *Cache, i int)
	}{
		{"single-A positive", 170, Config{}, func(c *Cache, i int) {
			c.Put([]dnswire.RR{{
				Name:  dnswire.MustName(fmt.Sprintf("h%d.zipf.test.", i)),
				Class: dnswire.ClassIN,
				TTL:   3600,
				Data:  dnswire.A{Addr: netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})},
			}}, CredAnswer, false)
		}},
		{"zone IRRs (2 NS + 2 glue A)", 606, Config{}, func(c *Cache, i int) {
			zone := fmt.Sprintf("z%d.irr.test.", i)
			c.Put([]dnswire.RR{rrNS(zone, 86400, "ns1."+zone), rrNS(zone, 86400, "ns2."+zone)}, CredReferral, true)
			for j := byte(1); j <= 2; j++ {
				c.Put([]dnswire.RR{{
					Name:  dnswire.MustName(fmt.Sprintf("ns%d.%s", j, zone)),
					Class: dnswire.ClassIN,
					TTL:   86400,
					Data:  dnswire.A{Addr: netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), j})},
				}}, CredReferral, true)
			}
		}},
		{"random-subdomain negative", 320, Config{NegativeTTL: time.Hour}, func(c *Cache, i int) {
			c.PutNegative(dnswire.MustName(fmt.Sprintf("r%d.victim.test.", i)), dnswire.TypeA,
				dnswire.RCodeNXDomain, soaRR("victim.test.", 300), epoch)
		}},
	}
	for _, tc := range cases {
		bytes, objects := heapPerRecord(t, n, tc.cfg, tc.fill)
		t.Logf("%s: %.0f B, %.1f objects per record", tc.name, bytes, objects)
		if bytes > tc.max {
			t.Errorf("%s: %.0f live bytes per record, want ≤ %.0f", tc.name, bytes, tc.max)
		}
	}
}
