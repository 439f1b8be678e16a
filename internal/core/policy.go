// Package core implements the paper's resilient caching server: an
// iterative resolver with an RRset cache (package cache) extended with the
// three proposed mechanisms — TTL refresh, credit-based TTL renewal of
// infrastructure records, and a long-TTL clamp — plus the renewal
// scheduler and the per-query accounting the evaluation harness consumes.
package core

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// day is the normalisation constant of the adaptive policies (§4: "864_00
// is the equivalent of one day in seconds").
const day = 24 * time.Hour

// creditPerTTL converts a credit multiplier into the adaptive policies'
// TTL-normalised credit: c·86400/TTL, so that the extra cache residency is
// roughly c days regardless of the zone's IRR TTL.
func creditPerTTL(c float64, irrTTL time.Duration) float64 {
	secs := irrTTL.Seconds()
	if secs <= 0 {
		return c
	}
	return c * day.Seconds() / secs
}

// LRU is the paper's LRU_c policy: each query to the zone resets its
// credit to C, so recently used zones survive C extra TTL periods.
type LRU struct {
	C float64
}

// Name implements RenewalPolicy.
func (p LRU) Name() string { return fmt.Sprintf("LRU(%g)", p.C) }

// Update implements RenewalPolicy.
func (p LRU) Update(_ float64, _ time.Duration) float64 { return p.C }

// LFU is the paper's LFU_c policy: each query adds C to the credit, capped
// at Max, so frequently used zones survive longest.
type LFU struct {
	C   float64
	Max float64
}

// Name implements RenewalPolicy.
func (p LFU) Name() string { return fmt.Sprintf("LFU(%g)", p.C) }

// Update implements RenewalPolicy.
func (p LFU) Update(current float64, _ time.Duration) float64 {
	v := current + p.C
	if p.Max > 0 && v > p.Max {
		v = p.Max
	}
	return v
}

// ALRU is the adaptive LRU policy: the credit is normalised by the zone's
// IRR TTL so every zone gets roughly C extra days of residency.
type ALRU struct {
	C float64
}

// Name implements RenewalPolicy.
func (p ALRU) Name() string { return fmt.Sprintf("A-LRU(%g)", p.C) }

// Update implements RenewalPolicy.
func (p ALRU) Update(_ float64, irrTTL time.Duration) float64 {
	return creditPerTTL(p.C, irrTTL)
}

// ALFU is the adaptive LFU policy: TTL-normalised credit accumulates per
// query. MaxDays caps the total extra residency the credit can buy, in
// days, so the cap is TTL-neutral like the credit itself.
type ALFU struct {
	C       float64
	MaxDays float64
}

// Name implements RenewalPolicy.
func (p ALFU) Name() string { return fmt.Sprintf("A-LFU(%g)", p.C) }

// Update implements RenewalPolicy.
func (p ALFU) Update(current float64, irrTTL time.Duration) float64 {
	v := current + creditPerTTL(p.C, irrTTL)
	if cap := creditPerTTL(p.MaxDays, irrTTL); p.MaxDays > 0 && v > cap {
		v = cap
	}
	return v
}

// DefaultLFUMax returns the credit cap the evaluation uses for LFU-style
// policies when none is specified: ten times the per-query credit, enough
// to favour hot zones without letting credit grow without bound (§4).
func DefaultLFUMax(c float64) float64 { return 10 * c }

// ParsePolicy builds a renewal policy from its configuration name ("lru",
// "lfu", "a-lru", "a-lfu", case-insensitive; empty disables renewal) and
// a credit value, applying the default caps for the LFU variants. A named
// policy needs a finite, positive credit: a NaN or infinite one would
// never run out (credit < 1 is never true), renewing every zone queried
// once forever, and persist drops such credit as corrupt.
func ParsePolicy(name string, credit float64) (RenewalPolicy, error) {
	name = strings.ToLower(name)
	if name != "" && (math.IsNaN(credit) || math.IsInf(credit, 0) || credit <= 0) {
		return nil, fmt.Errorf("core: renewal credit %g: want a finite number above 0", credit)
	}
	switch name {
	case "":
		return nil, nil
	case "lru":
		return LRU{C: credit}, nil
	case "lfu":
		return LFU{C: credit, Max: DefaultLFUMax(credit)}, nil
	case "a-lru", "alru":
		return ALRU{C: credit}, nil
	case "a-lfu", "alfu":
		return ALFU{C: credit, MaxDays: DefaultLFUMax(credit)}, nil
	default:
		return nil, fmt.Errorf("core: unknown renewal policy %q (want lru, lfu, a-lru, a-lfu)", name)
	}
}
