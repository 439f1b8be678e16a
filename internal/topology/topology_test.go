package topology

import (
	"context"
	"testing"
	"time"

	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
)

func smallParams(seed int64) Params {
	p := DefaultParams(seed)
	p.NumTLDs = 5
	p.SLDsPerTLD = 20
	return p
}

func TestGenerateBasicShape(t *testing.T) {
	tree, err := Generate(smallParams(1))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tree.Root() == nil {
		t.Fatal("no root zone")
	}
	if len(tree.RootHints) == 0 {
		t.Fatal("no root hints")
	}
	tlds := 0
	depths := map[int]int{}
	for _, zn := range tree.Order {
		zi := tree.Zones[zn]
		depths[zi.Depth]++
		if zi.Depth == 1 {
			tlds++
		}
		if got := len(zi.Servers); got < 2 || got > 3 {
			t.Errorf("zone %s has %d servers, want 2-3", zn, got)
		}
	}
	if tlds != 5 {
		t.Errorf("TLD count = %d, want 5", tlds)
	}
	if depths[2] < 50 {
		t.Errorf("only %d SLDs generated", depths[2])
	}
	if depths[3] == 0 {
		t.Error("no third-level zones generated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallParams(7))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(smallParams(7))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a.Order) != len(b.Order) {
		t.Fatalf("zone counts differ: %d vs %d", len(a.Order), len(b.Order))
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("zone order differs at %d: %s vs %s", i, a.Order[i], b.Order[i])
		}
		za, zb := a.Zones[a.Order[i]], b.Zones[b.Order[i]]
		if za.IRRTTL != zb.IRRTTL || len(za.Servers) != len(zb.Servers) {
			t.Fatalf("zone %s differs between runs", a.Order[i])
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a, _ := Generate(smallParams(1))
	b, _ := Generate(smallParams(2))
	if len(a.Order) == len(b.Order) {
		same := true
		for i := range a.Order {
			if a.Zones[a.Order[i]].IRRTTL != b.Zones[b.Order[i]].IRRTTL {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical trees")
		}
	}
}

func TestIRRTTLOverride(t *testing.T) {
	p := smallParams(3)
	p.IRRTTLOverride = 3 * 24 * time.Hour
	tree, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, zn := range tree.Order {
		if got := tree.Zones[zn].IRRTTL; got != 3*24*time.Hour {
			t.Fatalf("zone %s IRR TTL = %v, want 72h", zn, got)
		}
	}
}

func TestIRRTTLDistributionMostlyUnderTwelveHours(t *testing.T) {
	p := DefaultParams(4)
	tree, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	under, total := 0, 0
	for _, zn := range tree.Order {
		zi := tree.Zones[zn]
		if zi.Depth < 2 {
			continue
		}
		total++
		if zi.IRRTTL <= 12*time.Hour {
			under++
		}
	}
	// §4: "most zones have a TTL value less or equal to 12 hours".
	if frac := float64(under) / float64(total); frac < 0.6 {
		t.Errorf("only %.0f%% of zones have IRR TTL ≤ 12h", 100*frac)
	}
}

func TestQueryableNames(t *testing.T) {
	tree, err := Generate(smallParams(5))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	names := tree.QueryableNames()
	if len(names) < 100 {
		t.Fatalf("only %d queryable names", len(names))
	}
	for _, tn := range names[:20] {
		if !tn.Name.IsSubdomainOf(tn.Zone) {
			t.Errorf("name %s not under its zone %s", tn.Name, tn.Zone)
		}
	}
}

// TestFullResolutionOverGeneratedTree is the topology integration test:
// every kind of generated name must resolve through a real caching server
// over the simulated network.
func TestFullResolutionOverGeneratedTree(t *testing.T) {
	p := smallParams(6)
	p.OutOfBailiwickFrac = 0.2 // stress glue chasing
	tree, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	clk := simclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.New(clk)
	net.RTT = 0
	net.Timeout = 0
	tree.Install(net)

	cs, err := core.NewCachingServer(core.Config{
		Transport: net,
		Clock:     clk,
		RootHints: tree.RootHints,
	})
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}

	names := tree.QueryableNames()
	step := len(names)/50 + 1
	resolved := 0
	for i := 0; i < len(names); i += step {
		res, err := cs.Resolve(context.Background(), names[i].Name, dnswire.TypeA)
		if err != nil {
			t.Fatalf("Resolve(%s): %v", names[i].Name, err)
		}
		if res.RCode != dnswire.RCodeNoError || len(res.Answer) == 0 {
			t.Fatalf("Resolve(%s) = %+v", names[i].Name, res)
		}
		resolved++
	}
	if resolved < 20 {
		t.Fatalf("resolved only %d names", resolved)
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	if _, err := Generate(Params{}); err == nil {
		t.Error("Generate accepted zero params")
	}
	p := smallParams(1)
	p.MinNS = 3
	p.MaxNS = 2
	if _, err := Generate(p); err == nil {
		t.Error("Generate accepted MinNS > MaxNS")
	}
}

func TestSignedTreeValidatesEndToEnd(t *testing.T) {
	p := smallParams(8)
	p.Signed = true
	tree, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate signed: %v", err)
	}
	if len(tree.TrustAnchors) == 0 {
		t.Fatal("signed tree has no trust anchors")
	}
	clk := simclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	net := simnet.New(clk)
	net.RTT = 0
	net.Timeout = 0
	tree.Install(net)

	cs, err := core.NewCachingServer(core.Config{
		Transport:    net,
		Clock:        clk,
		RootHints:    tree.RootHints,
		TrustAnchors: tree.TrustAnchors,
	})
	if err != nil {
		t.Fatalf("NewCachingServer: %v", err)
	}
	names := tree.QueryableNames()
	step := len(names)/20 + 1
	for i := 0; i < len(names); i += step {
		res, err := cs.Resolve(context.Background(), names[i].Name, dnswire.TypeA)
		if err != nil {
			t.Fatalf("validated Resolve(%s): %v", names[i].Name, err)
		}
		if res.RCode != dnswire.RCodeNoError {
			t.Fatalf("Resolve(%s) = %v", names[i].Name, res.RCode)
		}
	}
}

func TestSignedTreeDeterministic(t *testing.T) {
	p := smallParams(9)
	p.Signed = true
	a, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a.TrustAnchors) != len(b.TrustAnchors) {
		t.Fatal("anchor counts differ")
	}
	if a.TrustAnchors[0].Data.String() != b.TrustAnchors[0].Data.String() {
		t.Error("trust anchors differ between identical seeds")
	}
}

// TestPropertyResolutionMatchesZoneData: across random topologies, every
// answer the caching server produces must equal the authoritative data in
// the owning zone — resolution is a correct function of the zone files.
func TestPropertyResolutionMatchesZoneData(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		p := DefaultParams(seed)
		p.NumTLDs = 4
		p.SLDsPerTLD = 10
		p.OutOfBailiwickFrac = 0.15
		tree, err := Generate(p)
		if err != nil {
			t.Fatalf("seed %d: Generate: %v", seed, err)
		}
		clk := simclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
		net := simnet.New(clk)
		net.RTT = 0
		net.Timeout = 0
		tree.Install(net)
		cs, err := core.NewCachingServer(core.Config{
			Transport: net, Clock: clk, RootHints: tree.RootHints,
		})
		if err != nil {
			t.Fatalf("seed %d: NewCachingServer: %v", seed, err)
		}

		names := tree.QueryableNames()
		step := len(names)/30 + 1
		for i := 0; i < len(names); i += step {
			tn := names[i]
			res, err := cs.Resolve(context.Background(), tn.Name, dnswire.TypeA)
			if err != nil {
				t.Fatalf("seed %d: Resolve(%s): %v", seed, tn.Name, err)
			}
			// Chase the CNAME chain in the authoritative data to find the
			// expected final A set.
			zi := tree.Zones[tn.Zone]
			want := zi.Zone.RRSet(tn.Name, dnswire.TypeA)
			if len(want) == 0 {
				// Name is a CNAME; the final answer must be an A record
				// somewhere in the chain the resolver returned.
				if res.Answer[0].Type() != dnswire.TypeCNAME {
					t.Fatalf("seed %d: %s: expected CNAME first, got %v", seed, tn.Name, res.Answer)
				}
				continue
			}
			got := map[string]bool{}
			for _, rr := range res.Answer {
				if rr.Type() == dnswire.TypeA {
					got[rr.Data.String()] = true
				}
			}
			for _, rr := range want {
				if !got[rr.Data.String()] {
					t.Fatalf("seed %d: %s: answer %v missing authoritative %v",
						seed, tn.Name, res.Answer, rr)
				}
			}
		}
	}
}
