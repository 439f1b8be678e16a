// Package bench holds the benchmark harness that regenerates every table
// and figure in the paper's evaluation (run with `go test -bench=.`), plus
// micro-benchmarks of the substrates (wire format, cache, resolver).
//
// Each BenchmarkTableN/BenchmarkFigN iteration builds a fresh suite and
// regenerates the artifact end to end; key measurements are attached as
// custom benchmark metrics, so `go test -bench=.` output records both the
// runtime and the reproduced result shape.
package bench

import (
	"context"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resilientdns/internal/core"
	"resilientdns/internal/dnssec"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/experiments"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/topology"
	"resilientdns/internal/zone"
)

// benchConfig is the scale used by the per-figure benchmarks: small enough
// that every figure regenerates in seconds, large enough to preserve the
// paper's shapes.
func benchConfig() experiments.Config {
	c := experiments.QuickConfig()
	c.NumTLDs = 5
	c.SLDsPerTLD = 15
	c.TraceClients = 50
	c.TraceQueries = 5000
	c.MonthQueries = 12000
	return c
}

// runExperiment regenerates one experiment per iteration and reports the
// named percentage cells as metrics.
func runExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		suite, err := experiments.NewSuite(benchConfig())
		if err != nil {
			b.Fatalf("NewSuite: %v", err)
		}
		_, err = suite.Run([]string{id}, func(t *experiments.Table) { tbl = t })
		if err != nil {
			b.Fatalf("Run(%s): %v", id, err)
		}
	}
	return tbl
}

// cellFloat parses a numeric table cell (possibly "+x%"/"x%").
func cellFloat(b *testing.B, cell string) float64 {
	b.Helper()
	s := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(cell), "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("bad cell %q: %v", cell, err)
	}
	return v
}

// avgColumn averages a numeric column over all rows.
func avgColumn(b *testing.B, tbl *experiments.Table, col int) float64 {
	b.Helper()
	sum := 0.0
	for _, row := range tbl.Rows {
		sum += cellFloat(b, row[col])
	}
	return sum / float64(len(tbl.Rows))
}

// BenchmarkTable1TraceStats regenerates Table 1 (trace statistics).
func BenchmarkTable1TraceStats(b *testing.B) {
	tbl := runExperiment(b, "table1")
	b.ReportMetric(avgColumn(b, tbl, 3), "requests-in")
	b.ReportMetric(avgColumn(b, tbl, 4), "requests-out")
}

// BenchmarkFig3GapCDF regenerates Figure 3 (IRR expiry gap CDFs).
func BenchmarkFig3GapCDF(b *testing.B) {
	tbl := runExperiment(b, "fig3")
	for _, row := range tbl.Rows {
		if row[0] == "gap (days)" && row[1] == "5.00" {
			b.ReportMetric(cellFloat(b, row[2]), "pct-gaps-under-5d")
		}
	}
}

// BenchmarkFig4Vanilla regenerates Figure 4 (vanilla DNS under attack).
func BenchmarkFig4Vanilla(b *testing.B) {
	tbl := runExperiment(b, "fig4")
	b.ReportMetric(avgColumn(b, tbl, 2), "sr-fail-pct-6h")
	b.ReportMetric(avgColumn(b, tbl, 6), "cs-fail-pct-6h")
}

// BenchmarkFig5Refresh regenerates Figure 5 (TTL refresh).
func BenchmarkFig5Refresh(b *testing.B) {
	tbl := runExperiment(b, "fig5")
	b.ReportMetric(avgColumn(b, tbl, 2), "sr-fail-pct-6h")
	b.ReportMetric(avgColumn(b, tbl, 6), "cs-fail-pct-6h")
}

// BenchmarkFig6RenewLRU regenerates Figure 6 (refresh + LRU renewal).
func BenchmarkFig6RenewLRU(b *testing.B) {
	tbl := runExperiment(b, "fig6")
	b.ReportMetric(avgColumn(b, tbl, 7), "sr-fail-pct-c5")
}

// BenchmarkFig7RenewLFU regenerates Figure 7 (refresh + LFU renewal).
func BenchmarkFig7RenewLFU(b *testing.B) {
	tbl := runExperiment(b, "fig7")
	b.ReportMetric(avgColumn(b, tbl, 7), "sr-fail-pct-c5")
}

// BenchmarkFig8RenewALRU regenerates Figure 8 (refresh + A-LRU renewal).
func BenchmarkFig8RenewALRU(b *testing.B) {
	tbl := runExperiment(b, "fig8")
	b.ReportMetric(avgColumn(b, tbl, 7), "sr-fail-pct-c5")
}

// BenchmarkFig9RenewALFU regenerates Figure 9 (refresh + A-LFU renewal,
// the paper's best policy).
func BenchmarkFig9RenewALFU(b *testing.B) {
	tbl := runExperiment(b, "fig9")
	b.ReportMetric(avgColumn(b, tbl, 7), "sr-fail-pct-c5")
	b.ReportMetric(avgColumn(b, tbl, 8), "cs-fail-pct-c5")
}

// BenchmarkFig10LongTTL regenerates Figure 10 (refresh + long TTL).
func BenchmarkFig10LongTTL(b *testing.B) {
	tbl := runExperiment(b, "fig10")
	b.ReportMetric(avgColumn(b, tbl, 7), "sr-fail-pct-5d")
}

// BenchmarkFig11Combined regenerates Figure 11 (refresh + renewal + long
// TTL combined).
func BenchmarkFig11Combined(b *testing.B) {
	tbl := runExperiment(b, "fig11")
	b.ReportMetric(avgColumn(b, tbl, 5), "sr-fail-pct-3d")
}

// BenchmarkTable2Overhead regenerates Table 2 (message and memory
// overhead per scheme).
func BenchmarkTable2Overhead(b *testing.B) {
	tbl := runExperiment(b, "table2")
	for _, row := range tbl.Rows {
		switch row[0] {
		case "Refresh":
			b.ReportMetric(cellFloat(b, row[1]), "refresh-msg-delta-pct")
		case "Refresh+A-LFU(5)":
			b.ReportMetric(cellFloat(b, row[1]), "alfu-msg-delta-pct")
		}
	}
}

// BenchmarkFig12Memory regenerates Figure 12 (cache occupancy over one
// month).
func BenchmarkFig12Memory(b *testing.B) {
	tbl := runExperiment(b, "fig12")
	var dns, alfu float64
	for _, row := range tbl.Rows {
		switch row[0] {
		case "DNS":
			dns = cellFloat(b, row[3])
		case "Refresh+A-LFU(5)":
			alfu = cellFloat(b, row[3])
		}
	}
	if dns > 0 {
		b.ReportMetric(alfu/dns, "records-multiplier")
	}
}

// BenchmarkAblationChildIRR regenerates the child-IRR ablation.
func BenchmarkAblationChildIRR(b *testing.B) {
	tbl := runExperiment(b, "ablation-childirr")
	b.ReportMetric(avgColumn(b, tbl, 1), "refresh-sr-pct")
	b.ReportMetric(avgColumn(b, tbl, 2), "nochildirr-sr-pct")
}

// BenchmarkMaxDamage regenerates the §6 maximum-damage comparison.
func BenchmarkMaxDamage(b *testing.B) {
	tbl := runExperiment(b, "maxdamage")
	b.ReportMetric(avgColumn(b, tbl, 1), "roottld-sr-pct")
	b.ReportMetric(avgColumn(b, tbl, 2), "maxdamage-sr-pct")
}

// --- Micro-benchmarks of the substrates ---

// BenchmarkWirePack measures DNS message encoding with compression.
func BenchmarkWirePack(b *testing.B) {
	msg := sampleWireMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := msg.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireUnpack measures DNS message decoding.
func BenchmarkWireUnpack(b *testing.B) {
	wire, err := sampleWireMessage().Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dnswire.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func sampleWireMessage() *dnswire.Message {
	q := dnswire.NewQuery(1, dnswire.MustName("www.example.com."), dnswire.TypeA)
	r := q.Reply()
	r.Flags.Authoritative = true
	r.Answer = []dnswire.RR{{
		Name: dnswire.MustName("www.example.com."), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.CNAME{Target: dnswire.MustName("web.example.com.")},
	}}
	r.Authority = []dnswire.RR{
		{Name: dnswire.MustName("example.com."), Class: dnswire.ClassIN, TTL: 86400,
			Data: dnswire.NS{Host: dnswire.MustName("ns1.example.com.")}},
		{Name: dnswire.MustName("example.com."), Class: dnswire.ClassIN, TTL: 86400,
			Data: dnswire.NS{Host: dnswire.MustName("ns2.example.com.")}},
	}
	return r
}

// benchStack builds a small tree + caching server over the simulated
// network for resolver micro-benchmarks.
func benchStack(b *testing.B, scheme func(*core.Config)) (*core.CachingServer, []topology.TargetName, *simclock.Virtual) {
	b.Helper()
	p := topology.DefaultParams(1)
	p.NumTLDs = 5
	p.SLDsPerTLD = 20
	tree, err := topology.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	clk := simclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.New(clk, 1)
	net.RTT = 0
	net.Timeout = 0
	tree.Install(net)
	cfg := core.Config{Transport: net, Clock: clk, RootHints: tree.RootHints}
	if scheme != nil {
		scheme(&cfg)
	}
	cs, err := core.NewCachingServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return cs, tree.QueryableNames(), clk
}

// BenchmarkResolveCold measures full hierarchy walks (cache cleared by
// using a different name each iteration, cycling the name list).
func BenchmarkResolveCold(b *testing.B) {
	cs, names, clk := benchStack(b, nil)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Advance far enough that previous answers expired.
		clk.Advance(8 * 24 * time.Hour)
		if _, err := cs.Resolve(ctx, names[i%len(names)].Name, dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveWarm measures cache-hit resolution.
func BenchmarkResolveWarm(b *testing.B) {
	cs, names, _ := benchStack(b, nil)
	ctx := context.Background()
	if _, err := cs.Resolve(ctx, names[0].Name, dnswire.TypeA); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Resolve(ctx, names[0].Name, dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveWarmParallel measures the lock-free cache-hit path
// under maximum contention: every goroutine hammers the same hot name
// (one cache shard, no flight-table entry).
func BenchmarkResolveWarmParallel(b *testing.B) {
	cs, names, _ := benchStack(b, nil)
	ctx := context.Background()
	if _, err := cs.Resolve(ctx, names[0].Name, dnswire.TypeA); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cs.Resolve(ctx, names[0].Name, dnswire.TypeA); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResolveWarmParallelSpread is the shard-spread variant: the
// goroutines cycle through every warm name, so hits distribute across the
// cache shards the way mixed production traffic would.
func BenchmarkResolveWarmParallelSpread(b *testing.B) {
	cs, names, _ := benchStack(b, nil)
	ctx := context.Background()
	for _, n := range names {
		if _, err := cs.Resolve(ctx, n.Name, dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := names[next.Add(1)%uint64(len(names))]
			if _, err := cs.Resolve(ctx, n.Name, dnswire.TypeA); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResolveRefreshScheme measures resolution cost with the full
// resilient configuration enabled.
func BenchmarkResolveRefreshScheme(b *testing.B) {
	cs, names, _ := benchStack(b, func(cfg *core.Config) {
		cfg.RefreshTTL = true
		cfg.Renewal = core.ALFU{C: 5, MaxDays: 50}
	})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Resolve(ctx, names[i%len(names)].Name, dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyGenerate measures hierarchy generation.
func BenchmarkTopologyGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := topology.DefaultParams(int64(i))
		p.NumTLDs = 8
		p.SLDsPerTLD = 50
		if _, err := topology.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDNSSECExtension regenerates the §6 DNSSEC-extension experiment.
func BenchmarkDNSSECExtension(b *testing.B) {
	tbl := runExperiment(b, "dnssec")
	b.ReportMetric(avgColumn(b, tbl, 2), "signed-dns-sr-pct")
	b.ReportMetric(avgColumn(b, tbl, 4), "signed-alfu-sr-pct")
}

// BenchmarkSignZone measures whole-zone DNSSEC signing.
func BenchmarkSignZone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		z := zone.New(dnswire.MustName("bench.example."))
		z.MustAdd(dnswire.RR{Name: dnswire.MustName("bench.example."), Class: dnswire.ClassIN,
			TTL: 3600, Data: dnswire.NS{Host: dnswire.MustName("ns.bench.example.")}})
		for j := 0; j < 50; j++ {
			z.MustAdd(dnswire.RR{
				Name: dnswire.MustName(fmt.Sprintf("h%d.bench.example.", j)), Class: dnswire.ClassIN,
				TTL: 300, Data: dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(j + 1)})},
			})
		}
		z.MustAdd(dnswire.RR{Name: dnswire.MustName("ns.bench.example."), Class: dnswire.ClassIN,
			TTL: 3600, Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.250")}})
		s, err := dnssec.GenerateSigner(dnswire.MustName("bench.example."), 3600, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := dnssec.SignZone(z, s, time.Now(), time.Now().Add(time.Hour)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyRRSet measures one Ed25519 RRset verification.
func BenchmarkVerifyRRSet(b *testing.B) {
	s, err := dnssec.GenerateSigner(dnswire.MustName("example."), 3600, nil)
	if err != nil {
		b.Fatal(err)
	}
	set := []dnswire.RR{{
		Name: dnswire.MustName("www.example."), Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")},
	}}
	now := time.Now()
	sig, err := s.SignRRSet(set, now.Add(-time.Hour), now.Add(time.Hour))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dnssec.VerifyRRSet(s.Key, sig, set, now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartition regenerates the cache-population extension experiment.
func BenchmarkPartition(b *testing.B) {
	tbl := runExperiment(b, "partition")
	b.ReportMetric(avgColumn(b, tbl, 1), "shared-cache-sr-pct")
	b.ReportMetric(avgColumn(b, tbl, 7), "split8-sr-pct")
}
