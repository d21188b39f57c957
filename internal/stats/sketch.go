package stats

import "math"

// Sketch is a mergeable quantile sketch with a bounded *relative* error —
// the streaming alternative to Sample for runs too long to keep every
// latency in memory. It is a DDSketch-style structure: positive values map
// to logarithmic buckets k = ceil(log_gamma(x)) with gamma = (1+alpha)/
// (1-alpha), so every value in bucket k lies within a factor gamma of its
// neighbors and the bucket midpoint estimate 2*gamma^k/(gamma+1) is within
// alpha*x of any x the bucket holds.
//
// Guarantee: for any quantile q, Quantile(q) is within relative error alpha
// of the exact nearest-rank sample quantile (the value Sample.Quantile
// returns for the same stream), clamped into [Min, Max] which are tracked
// exactly. Memory is O(log(max/min)/alpha) buckets — a few KB for
// microsecond-scale latencies at alpha = 0.01 — independent of the number
// of observations, versus 8 bytes per observation for Sample.
//
// Sketches with the same alpha merge exactly (bucket-wise addition):
// Merge(a, b) over two streams equals a sketch fed the concatenation, which
// is what lets fleet servers and sweep workers each keep a local sketch and
// reassemble deterministically. The zero value is not usable; construct
// with NewSketch.
type Sketch struct {
	alpha       float64
	gamma       float64
	invLogGamma float64
	// bins[i] counts values in bucket (base + i); the slice grows toward
	// both ends as the observed dynamic range widens.
	bins []uint64
	base int
	// zeros counts non-positive and sub-resolution (< minIndexable) values,
	// which all report as 0 from quantile queries.
	zeros    uint64
	n        uint64
	sum      float64
	min, max float64
}

// minIndexable bounds the log-bucket index range: values below it (1e-9 in
// the caller's unit — sub-femtosecond for microsecond latencies) land in
// the zeros bucket. It keeps indices small without affecting any real
// measurement.
const minIndexable = 1e-9

// DefaultSketchAlpha is the relative-error bound used across the telemetry
// layer: quantile estimates within 1% of the exact sample quantile.
const DefaultSketchAlpha = 0.01

// NewSketch returns an empty sketch with the given relative-error bound
// (0 < alpha < 1). Use DefaultSketchAlpha unless a test needs otherwise.
func NewSketch(alpha float64) *Sketch {
	if alpha <= 0 || alpha >= 1 {
		panic("stats: sketch alpha must be in (0, 1)")
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:       alpha,
		gamma:       gamma,
		invLogGamma: 1 / math.Log(gamma),
	}
}

// Alpha returns the sketch's relative-error bound.
func (s *Sketch) Alpha() float64 { return s.alpha }

// key maps a positive value to its bucket index.
func (s *Sketch) key(x float64) int {
	return int(math.Ceil(math.Log(x) * s.invLogGamma))
}

// Add records one observation.
func (s *Sketch) Add(x float64) {
	s.n++
	s.sum += x
	if s.n == 1 || x < s.min {
		s.min = x
	}
	if s.n == 1 || x > s.max {
		s.max = x
	}
	if x < minIndexable {
		s.zeros++
		return
	}
	s.bump(s.key(x), 1)
}

// bump adds c to bucket k, growing the bin slice as needed.
func (s *Sketch) bump(k int, c uint64) {
	if len(s.bins) == 0 {
		s.bins = append(s.bins, c)
		s.base = k
		return
	}
	if k < s.base {
		grown := make([]uint64, s.base-k+len(s.bins))
		copy(grown[s.base-k:], s.bins)
		s.bins = grown
		s.base = k
	} else if k >= s.base+len(s.bins) {
		for k >= s.base+len(s.bins) {
			s.bins = append(s.bins, 0)
		}
	}
	s.bins[k-s.base] += c
}

// N returns the number of observations.
func (s *Sketch) N() uint64 { return s.n }

// Sum returns the sum of observations.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the average, or 0 for an empty sketch (exact, not
// bucket-estimated: the sum is tracked directly).
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest observation (exact), or 0 if empty.
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (exact), or 0 if empty.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Quantile returns an estimate of the q-quantile within relative error
// Alpha of the exact nearest-rank sample quantile, or 0 for an empty
// sketch. Quantile(0.99) is the tail metric of every figure.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Same nearest-rank convention as Sample.Quantile: 1-based rank
	// ceil(q*n), clamped to [1, n].
	rank := uint64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank <= s.zeros {
		return 0
	}
	seen := s.zeros
	for i, c := range s.bins {
		seen += c
		if seen >= rank {
			k := float64(s.base + i)
			est := 2 * math.Pow(s.gamma, k) / (s.gamma + 1)
			// Min/Max are exact; clamping never hurts the bound and makes
			// Quantile(0) == Min, Quantile(1) == Max.
			if est < s.min {
				est = s.min
			}
			if est > s.max {
				est = s.max
			}
			return est
		}
	}
	return s.max
}

// P99 is shorthand for Quantile(0.99).
func (s *Sketch) P99() float64 { return s.Quantile(0.99) }

// FracAbove estimates the fraction of observations strictly greater than x
// up to the bucket resolution: observations within a factor gamma of x may
// count on either side. It is the SLO-violation-rate primitive of the
// telemetry watchdog.
func (s *Sketch) FracAbove(x float64) float64 {
	if s.n == 0 {
		return 0
	}
	if x < minIndexable {
		return float64(s.n-s.zeros) / float64(s.n)
	}
	kx := s.key(x)
	var above uint64
	for i, c := range s.bins {
		if s.base+i > kx {
			above += c
		}
	}
	return float64(above) / float64(s.n)
}

// Merge folds o into s bucket-wise. Both sketches must share the same
// alpha; merging is exact (equal to a sketch fed both streams) and
// order-independent up to internal storage layout.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	if o.alpha != s.alpha {
		panic("stats: merging sketches with different alpha")
	}
	if s.n == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.n == 0 || o.max > s.max {
		s.max = o.max
	}
	s.n += o.n
	s.sum += o.sum
	s.zeros += o.zeros
	for i, c := range o.bins {
		if c != 0 {
			s.bump(o.base+i, c)
		}
	}
}

// Reset clears the sketch for reuse, keeping its bucket storage.
func (s *Sketch) Reset() {
	for i := range s.bins {
		s.bins[i] = 0
	}
	s.zeros, s.n = 0, 0
	s.sum, s.min, s.max = 0, 0, 0
}

// Buckets returns the number of allocated buckets — the memory-footprint
// statistic TestSketchMemoryBound pins.
func (s *Sketch) Buckets() int { return len(s.bins) }

// MemoryBytes estimates the sketch's heap footprint (bucket storage plus
// the fixed header), for comparison against Sample's 8 bytes/observation.
func (s *Sketch) MemoryBytes() int { return 8*len(s.bins) + 96 }
