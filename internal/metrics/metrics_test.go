package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if got := c.At(5); got != 0 {
		t.Errorf("empty At = %v, want 0", got)
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty Quantile should be NaN")
	}
}

func TestCDFAt(t *testing.T) {
	var c CDF
	for _, v := range []float64{1, 2, 3, 4} {
		c.Add(v)
	}
	tests := []struct {
		v    float64
		want float64
	}{
		{0, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.v); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.v, got, tt.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	var c CDF
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	tests := []struct {
		q, want float64
	}{
		{0, 1},
		{0.5, 50},
		{0.95, 95},
		{1, 100},
	}
	for _, tt := range tests {
		if got := c.Quantile(tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestCDFMax(t *testing.T) {
	var c CDF
	c.Add(2)
	c.Add(4)
	c.Add(9)
	if got := c.Max(); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
}

func TestCDFAddDuration(t *testing.T) {
	var c CDF
	c.AddDuration(90 * time.Second)
	if got := c.Quantile(1); got != 90 {
		t.Errorf("Quantile(1) = %v, want 90 seconds", got)
	}
}

func TestPropertyCDFBounds(t *testing.T) {
	f := func(vals []float64, probe float64) bool {
		var c CDF
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			c.Add(v)
		}
		p := c.At(probe)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyQuantileWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var c CDF
		n := 1 + r.Intn(100)
		for i := 0; i < n; i++ {
			c.Add(r.NormFloat64())
		}
		q := r.Float64()
		v := c.Quantile(q)
		return v >= c.Quantile(0) && v <= c.Quantile(1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatioAndPercent(t *testing.T) {
	if got := Ratio(1, 4); got != 0.25 {
		t.Errorf("Ratio = %v, want 0.25", got)
	}
	if got := Ratio(1, 0); got != 0 {
		t.Errorf("Ratio with zero total = %v, want 0", got)
	}
}

func TestSeriesAppendAndStats(t *testing.T) {
	s := NewSeries("zones", 0)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		s.Append(base.Add(time.Duration(i)*time.Hour), float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	if got := s.MaxValue(); got != 9 {
		t.Errorf("MaxValue = %v, want 9", got)
	}
	if got := s.MeanValue(); got != 4.5 {
		t.Errorf("MeanValue = %v, want 4.5", got)
	}
}

func TestSeriesDecimation(t *testing.T) {
	s := NewSeries("records", 8)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		s.Append(base.Add(time.Duration(i)*time.Minute), float64(i))
	}
	if s.Len() > 8 {
		t.Errorf("Len = %d, want ≤ 8 after decimation", s.Len())
	}
	// Order must be preserved.
	for i := 1; i < s.Len(); i++ {
		if !s.Times[i].After(s.Times[i-1]) {
			t.Fatalf("times not increasing at %d", i)
		}
	}
}
