package core_test

import (
	"context"
	"fmt"
	"time"

	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
	"resilientdns/internal/topology"
)

// Example builds the paper's resilient caching server over a simulated
// hierarchy and resolves a name twice: the second answer comes from cache.
func Example() {
	params := topology.DefaultParams(1)
	params.NumTLDs = 3
	params.SLDsPerTLD = 5
	tree, err := topology.Generate(params)
	if err != nil {
		panic(err)
	}
	clock := simclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	network := simnet.New(clock)
	tree.Install(network)

	cs, err := core.NewCachingServer(core.Config{
		Transport:  network,
		Clock:      clock,
		RootHints:  tree.RootHints,
		RefreshTTL: true,                         // §4 TTL refresh
		Renewal:    core.ALFU{C: 5, MaxDays: 50}, // §4 adaptive-LFU renewal
	})
	if err != nil {
		panic(err)
	}

	name := tree.QueryableNames()[0].Name
	first, err := cs.Resolve(context.Background(), name, dnswire.TypeA)
	if err != nil {
		panic(err)
	}
	second, err := cs.Resolve(context.Background(), name, dnswire.TypeA)
	if err != nil {
		panic(err)
	}
	fmt.Println("first from cache:", first.FromCache)
	fmt.Println("second from cache:", second.FromCache)
	// Output:
	// first from cache: false
	// second from cache: true
}
