package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"resilientdns/internal/dnswire"
)

// workload is one traffic mix and the dnscache configuration it runs
// against. Rates are literals sized to the reference box (2 cores), about
// 30 % of what the seed code sustains there; they are never derived from
// a measurement at run time, so two commits always see the same load.
type workload struct {
	name string
	why  string
	// ttl gives the rig's TTLs; the seed is filled in per run.
	ttl   rigSpec
	cache cacheConfig
	// rate is the legit queries per second of the fixed-rate phase.
	rate int
	// dark lists the rig levels that go silent once the cache is warm.
	dark string
	// abuseQPS, when set, adds an abuser socket on 127.0.0.99 flooding
	// random subdomains of one victim zone during both measured phases:
	// four times what the guard lets one client have, and with the legit
	// traffic about 30 % of what the seed sustains, as on the other
	// workloads. (At the issue's 10000 qps dnscache's core was half busy
	// and the legit latency mostly time spent queueing, which doubles when
	// the host slows by a third; no yardstick cancels that.)
	abuseQPS int
	traffic  func(zones []dnswire.Name) traffic
}

// cacheConfig is the part of dnscache's configuration a workload sets;
// everything else stays at the binary's defaults. The child gets it as
// flags, the in-process replay as the structs those flags fill.
type cacheConfig struct {
	refresh           bool
	renewal           string // renewal policy name, "" = off
	credit            float64
	clientRPS         float64 // per-client rate limit, 0 = guard off
	slip              int
	overloadCacheOnly bool
}

func (c cacheConfig) args() []string {
	var a []string
	if c.refresh {
		a = append(a, "-refresh")
	}
	if c.renewal != "" {
		a = append(a, "-renewal", c.renewal, "-credit", fmt.Sprint(c.credit))
	}
	if c.clientRPS > 0 {
		a = append(a, "-client-rps", fmt.Sprint(c.clientRPS), "-slip", fmt.Sprint(c.slip))
	}
	if c.overloadCacheOnly {
		a = append(a, "-overload-cache-only")
	}
	return a
}

func (c cacheConfig) guardOn() bool { return c.clientRPS > 0 || c.overloadCacheOnly }

// traffic is a workload's names and how the phases pick among them.
type traffic struct {
	src nameSource
	// warm lists the keys asked once, and checked, before measuring.
	warm []uint64
	// fixed and sat return the key picker of one socket for the
	// fixed-rate and the saturation phase.
	fixed, sat func(rng *rand.Rand) func() uint64
	// abuse is the abuser's name source (flood only).
	abuse nameSource
	// probe lists keys asked once after the measured phases, one per
	// zone, to see which zones still resolve: the ones only the renewal
	// scheduler can have kept on blackout, every zone elsewhere.
	probe []uint64
}

// seq returns the n keys from first on.
func seq(first, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(first + i)
	}
	return out
}

func zipfOver(n int) func(*rand.Rand) func() uint64 {
	return func(rng *rand.Rand) func() uint64 { return zipfPicker(rng, n) }
}

const (
	hourTTL = 3600

	hitNames = 20000

	// The blackout population. The warm-up visits 380 of the 400 zones.
	// Traffic then asks for names in the first 190: answers from their
	// servers keep refreshing their IRRs. The other 190 are idle: only the
	// renewal scheduler keeps them cached, and one probe per zone after
	// the phases shows how many it kept (alive_ratio). A small share of
	// queries goes to the 20 zones never visited. With root and TLDs dark
	// those cannot resolve — the paper's residual failures — so they are
	// "dark" queries: they exercise the resolver's failure path (retries,
	// budget, quarantine) beside the rest, their failing is the right
	// outcome and not an error of the run, and they count in ok_qps like
	// any query a client sent.
	blackoutBusy      = 190
	blackoutVisited   = 380
	blackoutNames     = 4000
	blackoutDarkNames = 200
	blackoutDarkShare = 0.02

	floodNames = 2000
)

var workloads = []workload{
	{
		name: "hit",
		why:  "Zipf over 20000 pre-warmed names: transport, dnswire, core.handle, resolve.Lookup and cache.Get do all the work, upstream none",
		ttl:  rigSpec{TLDTTL: hourTTL, SLDTTL: hourTTL, DataTTL: hourTTL},
		rate: 10000,
		traffic: func(zones []dnswire.Name) traffic {
			return traffic{src: newFixedNames(zones, hitNames), warm: seq(0, hitNames), fixed: zipfOver(hitNames), sat: zipfOver(hitNames),
				probe: seq(hitNames-len(zones), len(zones))} // the least popular name of every zone
		},
	},
	{
		name: "miss",
		why:  "never-repeated names under warm delegations, one upstream fetch each: resolve pipeline, upstream UDP.Exchange, coalescing table and cache.Put dominate",
		ttl:  rigSpec{TLDTTL: hourTTL, SLDTTL: hourTTL, DataTTL: hourTTL},
		rate: 1500,
		traffic: func(zones []dnswire.Name) traffic {
			// Host 0 of every zone warms its delegation; every later key
			// is drawn once from a counter the sockets share.
			next := new(atomic.Uint64)
			next.Store(uint64(len(zones)) - 1)
			fresh := func(*rand.Rand) func() uint64 { return func() uint64 { return next.Add(1) } }
			return traffic{src: &uniqueNames{prefix: "h", zones: zones}, warm: seq(0, len(zones)), fixed: fresh, sat: fresh, probe: seq(0, len(zones))}
		},
	},
	{
		name:  "blackout",
		why:   "root and TLDs silent, short TTLs, refresh + A-LFU renewal on: the renewal scheduler, retry budget, quarantine and failure path work; the paper's Fig. 9 in miniature",
		ttl:   rigSpec{TLDTTL: 600, SLDTTL: 8, DataTTL: 2},
		cache: cacheConfig{refresh: true, renewal: "a-lfu", credit: 3},
		rate:  2000,
		dark:  "root,tld",
		traffic: func(zones []dnswire.Name) traffic {
			const idleZones = blackoutVisited - blackoutBusy
			names := newFixedNames(zones[:blackoutBusy], blackoutNames)
			names.add(zones[blackoutBusy:blackoutVisited], idleZones, false)
			names.add(zones[blackoutVisited:], blackoutDarkNames, true)
			idle := seq(blackoutNames, idleZones)
			return traffic{
				src: names,
				// The first names cover every busy zone once.
				warm:  append(seq(0, blackoutBusy), idle...),
				probe: idle,
				fixed: func(rng *rand.Rand) func() uint64 {
					busy := zipfPicker(rng, blackoutNames)
					return func() uint64 {
						if rng.Float64() < blackoutDarkShare {
							return blackoutNames + idleZones + uint64(rng.Intn(blackoutDarkNames))
						}
						return busy()
					}
				},
				sat: zipfOver(blackoutNames),
			}
		},
	},
	{
		name:     "flood",
		why:      "legit hits beside a 6000 qps random-subdomain abuser: guard admit, slip and the miss/negative path carry the load; writes beside reads, hostile beside legit",
		ttl:      rigSpec{TLDTTL: hourTTL, SLDTTL: hourTTL, DataTTL: hourTTL},
		cache:    cacheConfig{clientRPS: 1500, slip: 2, overloadCacheOnly: true},
		rate:     1000,
		abuseQPS: 6000,
		traffic: func(zones []dnswire.Name) traffic {
			return traffic{
				src: newFixedNames(zones, floodNames), warm: seq(0, floodNames), fixed: zipfOver(floodNames), sat: zipfOver(floodNames),
				probe: seq(floodNames-len(zones), len(zones)),
				abuse: &uniqueNames{prefix: "x", zones: zones[:1]},
			}
		},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
