// Package stats provides the measurement pipeline shared by every experiment:
// latency recorders with exact percentiles, CDFs, quantile sketches, and
// summary helpers matching the metrics the paper reports (average, P99 tail,
// tail-to-average ratio, QoS-safe throughput).
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations and answers exact order statistics.
// It keeps all observations; experiment sizes in this repository (≤ a few
// million samples) make that the simplest correct choice.
type Sample struct {
	xs     []float64
	sorted bool
	sum    float64
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.sum += x
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Sum returns the sum of observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the average, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.sum / float64(len(s.xs))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method, or 0 for an empty sample. Quantile(0.99) is the paper's P99.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s.sort()
	rank := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.xs[rank]
}

// Min returns the smallest observation, or 0 if empty.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation, or 0 if empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// P99 is shorthand for Quantile(0.99), the paper's tail-latency metric.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Median is shorthand for Quantile(0.5).
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// TailToAvg returns P99/mean — the predictability metric of paper §6.4.
func (s *Sample) TailToAvg() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.P99() / m
}

// FracAtLeast returns the fraction of observations >= x.
func (s *Sample) FracAtLeast(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := sort.SearchFloat64s(s.xs, x)
	return float64(len(s.xs)-i) / float64(len(s.xs))
}

// CDFAt returns the empirical CDF evaluated at x: P(X <= x).
func (s *Sample) CDFAt(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	// Index of first element > x.
	i := sort.Search(len(s.xs), func(j int) bool { return s.xs[j] > x })
	return float64(i) / float64(len(s.xs))
}

// CDFPoint is one (x, P(X<=x)) pair of an empirical CDF.
type CDFPoint struct {
	X float64
	P float64
}

// CDF returns the empirical CDF evaluated at n evenly spaced points across
// [min, max], suitable for plotting (the paper's Figs 2, 4, 5).
func (s *Sample) CDF(n int) []CDFPoint {
	if len(s.xs) == 0 || n <= 0 {
		return nil
	}
	s.sort()
	lo, hi := s.xs[0], s.xs[len(s.xs)-1]
	pts := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		x := lo
		if n > 1 {
			x = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		pts = append(pts, CDFPoint{X: x, P: s.CDFAt(x)})
	}
	return pts
}

// Summary is a compact result record used across experiment tables.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P99    float64
	Max    float64
}

// Summarize extracts a Summary from the sample.
func (s *Sample) Summarize() Summary {
	return Summary{N: s.N(), Mean: s.Mean(), Median: s.Median(), P99: s.P99(), Max: s.Max()}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p99=%.2f max=%.2f", s.N, s.Mean, s.Median, s.P99, s.Max)
}

// MarshalJSON emits the summary with a fixed field order and shortest-exact
// float formatting (via JSONObject), so every tool serializing summaries
// (umprof, umbench, umsim -metrics) produces byte-identical records for
// identical results.
func (s Summary) MarshalJSON() ([]byte, error) {
	var o JSONObject
	o.Int("n", int64(s.N)).
		Float("mean", s.Mean).
		Float("p50", s.Median).
		Float("p99", s.P99).
		Float("max", s.Max)
	return o.Bytes(), nil
}

// UnmarshalJSON accepts the MarshalJSON layout (and any key order).
func (s *Summary) UnmarshalJSON(data []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	s.N = int(m["n"])
	s.Mean = m["mean"]
	s.Median = m["p50"]
	s.P99 = m["p99"]
	s.Max = m["max"]
	return nil
}

// Values returns a copy of the raw observations (sorted if a quantile was
// taken since the last Add). It exists so samples from independent
// simulations (e.g. fleet servers) can be merged exactly. The copy protects
// the sample's internals: Quantile and friends sort the backing slice in
// place, so handing it out would let callers corrupt the sample (and let the
// sample reorder a caller's view under its feet).
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// sampleJSON is the Sample's JSON layout: the running sum and the raw
// observations.
type sampleJSON struct {
	Sum    float64   `json:"sum"`
	Values []float64 `json:"values"`
}

// MarshalJSON encodes the sample as {"sum","values"} — the sweep-cache
// payload form of a latency sample. Values go out in their current order
// (sorted if a quantile was taken).
func (s *Sample) MarshalJSON() ([]byte, error) {
	return json.Marshal(sampleJSON{Sum: s.sum, Values: s.xs})
}

// UnmarshalJSON inverts MarshalJSON. The sum is taken verbatim rather than
// recomputed because float addition is not associative: the original sum
// was accumulated in insertion order, and quantile queries may have
// re-sorted the values since, so re-adding would drift in the last bits and
// break the cache's bit-identical warm-run contract.
func (s *Sample) UnmarshalJSON(data []byte) error {
	var m sampleJSON
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*s = Sample{xs: m.Values, sum: m.Sum, sorted: sort.Float64sAreSorted(m.Values)}
	return nil
}

// Reset clears the sample for reuse.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
	s.sum = 0
}

// Ratio divides a by b, returning 0 when b is 0. The figure drivers compute
// their headline "X× lower/higher" ratios inline; Ratio serves the tests and
// benchmarks that check them.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// GeoMean returns the geometric mean of positive values (the paper's
// cross-application averages); non-positive values are skipped.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Merge returns one sample holding the observations of every part, with
// the sum accumulated as if each part's values had been added in their
// current order, part after part, so Mean is bit-identical to that append
// path. A part that is not sorted yet is sorted in place, as any quantile
// query on it would; the sorted parts are then combined by a k-way merge
// into one presized slice, so the merged sample needs no sort of its own.
func Merge(parts []*Sample) *Sample {
	n := 0
	var sum float64
	for _, p := range parts {
		n += len(p.xs)
		for _, x := range p.xs {
			sum += x
		}
	}
	runs := make([][]float64, 0, len(parts))
	for _, p := range parts {
		if len(p.xs) > 0 {
			p.sort()
			runs = append(runs, p.xs)
		}
	}
	// runs is a min-heap on each run's head.
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftDown(runs, i)
	}
	xs := make([]float64, 0, n)
	for len(runs) > 1 {
		top := runs[0]
		xs = append(xs, top[0])
		if len(top) > 1 {
			runs[0] = top[1:]
		} else {
			last := len(runs) - 1
			runs[0] = runs[last]
			runs = runs[:last]
		}
		siftDown(runs, 0)
	}
	if len(runs) == 1 {
		xs = append(xs, runs[0]...)
	}
	return &Sample{xs: xs, sorted: true, sum: sum}
}

// siftDown restores the heap order of runs below index i.
func siftDown(runs [][]float64, i int) {
	for {
		least, l := i, 2*i+1
		if l < len(runs) && runs[l][0] < runs[least][0] {
			least = l
		}
		if r := l + 1; r < len(runs) && runs[r][0] < runs[least][0] {
			least = r
		}
		if least == i {
			return
		}
		runs[i], runs[least] = runs[least], runs[i]
		i = least
	}
}
