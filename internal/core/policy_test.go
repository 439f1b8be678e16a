package core

import (
	"math"
	"testing"
	"time"
)

func TestLRUResetsCredit(t *testing.T) {
	p := LRU{C: 3}
	if got := p.Update(0, time.Hour); got != 3 {
		t.Errorf("Update(0) = %v, want 3", got)
	}
	if got := p.Update(2.5, time.Hour); got != 3 {
		t.Errorf("Update(2.5) = %v, want 3 (reset, not add)", got)
	}
}

func TestLFUAccumulatesWithCap(t *testing.T) {
	p := LFU{C: 3, Max: 7}
	c := 0.0
	c = p.Update(c, time.Hour) // 3
	c = p.Update(c, time.Hour) // 6
	c = p.Update(c, time.Hour) // capped at 7
	if c != 7 {
		t.Errorf("credit = %v, want 7", c)
	}
}

func TestLFUNoCapWhenZero(t *testing.T) {
	p := LFU{C: 2}
	c := 0.0
	for i := 0; i < 100; i++ {
		c = p.Update(c, time.Hour)
	}
	if c != 200 {
		t.Errorf("credit = %v, want 200", c)
	}
}

func TestALRUNormalisesByTTL(t *testing.T) {
	p := ALRU{C: 3}
	// TTL of one day: credit = 3 renewals = 3 extra days.
	if got := p.Update(0, 24*time.Hour); got != 3 {
		t.Errorf("Update(TTL=1d) = %v, want 3", got)
	}
	// TTL of one hour: 72 renewals, still 3 extra days.
	if got := p.Update(0, time.Hour); got != 72 {
		t.Errorf("Update(TTL=1h) = %v, want 72", got)
	}
	// Extra residency = credit × TTL must be TTL-independent.
	for _, ttl := range []time.Duration{time.Minute, time.Hour, 12 * time.Hour, 24 * time.Hour} {
		credit := p.Update(0, ttl)
		extra := time.Duration(credit * float64(ttl))
		if diff := (extra - 3*24*time.Hour).Abs(); diff > time.Second {
			t.Errorf("TTL %v: extra residency %v, want 72h", ttl, extra)
		}
	}
}

func TestALFUCapIsTTLNeutral(t *testing.T) {
	p := ALFU{C: 1, MaxDays: 5}
	for _, ttl := range []time.Duration{time.Minute, time.Hour, 24 * time.Hour} {
		c := 0.0
		for i := 0; i < 1000; i++ {
			c = p.Update(c, ttl)
		}
		extra := time.Duration(c * float64(ttl))
		if diff := (extra - 5*24*time.Hour).Abs(); diff > time.Second {
			t.Errorf("TTL %v: capped residency %v, want 120h", ttl, extra)
		}
	}
}

func TestALRUZeroTTLFallsBack(t *testing.T) {
	p := ALRU{C: 2}
	if got := p.Update(0, 0); got != 2 {
		t.Errorf("Update(TTL=0) = %v, want plain C", got)
	}
}

func TestPolicyNames(t *testing.T) {
	tests := []struct {
		p    RenewalPolicy
		want string
	}{
		{LRU{C: 1}, "LRU(1)"},
		{LFU{C: 3, Max: 30}, "LFU(3)"},
		{ALRU{C: 5}, "A-LRU(5)"},
		{ALFU{C: 5, MaxDays: 50}, "A-LFU(5)"},
	}
	for _, tt := range tests {
		if got := tt.p.Name(); got != tt.want {
			t.Errorf("Name = %q, want %q", got, tt.want)
		}
	}
}

func TestDefaultLFUMax(t *testing.T) {
	if got := DefaultLFUMax(3); got != 30 {
		t.Errorf("DefaultLFUMax(3) = %v, want 30", got)
	}
}

func TestParsePolicy(t *testing.T) {
	type parseCase struct {
		in     string
		credit float64
		want   string
		err    bool
	}
	tests := []parseCase{
		{"", 3, "", false},
		{"lru", 3, "LRU(3)", false},
		{"LFU", 5, "LFU(5)", false},
		{"a-lru", 1, "A-LRU(1)", false},
		{"alfu", 5, "A-LFU(5)", false},
		{"bogus", 3, "", true},
	}
	// A named policy with a credit that is not a finite number above 0 is
	// refused (NaN or +Inf credit never runs out and renews forever); no
	// policy name means no renewal, whatever the credit.
	for _, credit := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		for _, name := range []string{"lru", "lfu", "a-lru", "a-lfu"} {
			tests = append(tests, parseCase{name, credit, "", true})
		}
		tests = append(tests, parseCase{"", credit, "", false})
	}
	for _, tt := range tests {
		p, err := ParsePolicy(tt.in, tt.credit)
		if tt.err {
			if err == nil {
				t.Errorf("ParsePolicy(%q, %v) succeeded", tt.in, tt.credit)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tt.in, err)
			continue
		}
		if tt.want == "" {
			if p != nil {
				t.Errorf("ParsePolicy(%q) = %v, want nil", tt.in, p)
			}
			continue
		}
		if p.Name() != tt.want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", tt.in, p.Name(), tt.want)
		}
	}
}
