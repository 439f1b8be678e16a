// Package metrics provides the small statistics toolkit used by the
// evaluation harness and the live server: empirical CDFs and time series
// matching the measurements reported in the paper (failed-query
// percentages, gap CDFs, and cache-occupancy series), latency histograms,
// and the one counter-set mechanism every layer counts with
// (counters.go).
package metrics

import (
	"math"
	"sort"
	"time"
)

// CDF is an empirical cumulative distribution function over float64
// samples. The zero value is an empty distribution ready for Add.
type CDF struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// AddDuration appends a duration sample, in seconds.
func (c *CDF) AddDuration(d time.Duration) { c.Add(d.Seconds()) }

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.samples) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns P(X ≤ v), in [0, 1]. An empty CDF returns 0.
func (c *CDF) At(v float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.sort()
	idx := sort.SearchFloat64s(c.samples, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(c.samples))
}

// Quantile returns the q-th quantile (q in [0, 1]) of the samples, using
// the nearest-rank method. An empty CDF returns NaN.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c.samples[rank]
}

// Max returns the largest sample, or NaN when empty.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return math.NaN()
	}
	c.sort()
	return c.samples[len(c.samples)-1]
}

// Samples returns a copy of the raw samples.
func (c *CDF) Samples() []float64 {
	return append([]float64(nil), c.samples...)
}

// Ratio returns c/total as a fraction in [0, 1]; 0 when total is zero.
func Ratio(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// Series is a time series of float64 samples, used for cache-occupancy
// plots (paper Fig 12).
type Series struct {
	Name    string
	Times   []time.Time
	Values  []float64
	maxKeep int
}

// NewSeries returns a named series. maxKeep bounds the number of retained
// points (0 means unbounded); when exceeded, the series is decimated by
// dropping every other point, preserving overall shape.
func NewSeries(name string, maxKeep int) *Series {
	return &Series{Name: name, maxKeep: maxKeep}
}

// Append records a sample at time t.
func (s *Series) Append(t time.Time, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
	if s.maxKeep > 0 && len(s.Values) > s.maxKeep {
		s.decimate()
	}
}

func (s *Series) decimate() {
	j := 0
	for i := 0; i < len(s.Values); i += 2 {
		s.Times[j] = s.Times[i]
		s.Values[j] = s.Values[i]
		j++
	}
	s.Times = s.Times[:j]
	s.Values = s.Values[:j]
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.Values) }

// MeanValue returns the mean of the retained values, or NaN when empty.
func (s *Series) MeanValue() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// MaxValue returns the maximum retained value, or NaN when empty.
func (s *Series) MaxValue() float64 {
	if len(s.Values) == 0 {
		return math.NaN()
	}
	max := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > max {
			max = v
		}
	}
	return max
}
