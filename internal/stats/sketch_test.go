package stats

import (
	"math"
	"math/rand"
	"testing"
)

// checkBound asserts the sketch quantile is within the documented relative
// error of the exact sample quantile.
func checkBound(t *testing.T, s *Sample, sk *Sketch, q float64) {
	t.Helper()
	exact := s.Quantile(q)
	est := sk.Quantile(q)
	tol := sk.Alpha()*math.Abs(exact) + 1e-12
	if math.Abs(est-exact) > tol {
		t.Fatalf("q=%.3f: sketch %.6g vs exact %.6g (tol %.3g)", q, est, exact, tol)
	}
}

func feedBoth(xs []float64, alpha float64) (*Sample, *Sketch) {
	s := &Sample{}
	sk := NewSketch(alpha)
	for _, x := range xs {
		s.Add(x)
		sk.Add(x)
	}
	return s, sk
}

func TestSketchBoundAcrossDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() float64{
		"exponential": func() float64 { return 40 * rng.ExpFloat64() },
		"lognormal":   func() float64 { return math.Exp(3 + 1.2*rng.NormFloat64()) },
		"bimodal": func() float64 {
			if rng.Float64() < 0.9 {
				return 10 + rng.Float64()
			}
			return 500 + 100*rng.Float64()
		},
		"uniform-wide": func() float64 { return 1e-3 + 1e6*rng.Float64() },
	}
	for name, draw := range dists {
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = draw()
		}
		s, sk := feedBoth(xs, DefaultSketchAlpha)
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			checkBound(t, s, sk, q)
		}
		if sk.Min() != s.Min() || sk.Max() != s.Max() {
			t.Fatalf("%s: min/max not exact: %v/%v vs %v/%v",
				name, sk.Min(), sk.Max(), s.Min(), s.Max())
		}
		if math.Abs(sk.Mean()-s.Mean()) > 1e-9*math.Abs(s.Mean()) {
			t.Fatalf("%s: mean not exact: %v vs %v", name, sk.Mean(), s.Mean())
		}
	}
}

func TestSketchEmptyAndSingle(t *testing.T) {
	sk := NewSketch(0.01)
	if sk.Quantile(0.5) != 0 || sk.N() != 0 || sk.Max() != 0 {
		t.Fatal("empty sketch not zero-valued")
	}
	sk.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := sk.Quantile(q); math.Abs(got-42) > 0.01*42 {
			t.Fatalf("single value q=%v: %v", q, got)
		}
	}
}

func TestSketchZerosAndNegatives(t *testing.T) {
	sk := NewSketch(0.01)
	s := &Sample{}
	for _, x := range []float64{0, 0, 0, 1, 2, 3, 4, 5, 6, 7} {
		sk.Add(x)
		s.Add(x)
	}
	if got := sk.Quantile(0.2); got != 0 {
		t.Fatalf("q in zeros bucket = %v, want 0", got)
	}
	checkBound(t, s, sk, 0.9)
}

// TestSketchMergeExact: merging per-shard sketches equals one sketch fed
// the concatenated stream — the fleet/sweep reassembly contract.
func TestSketchMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	whole := NewSketch(0.01)
	shards := make([]*Sketch, 4)
	for i := range shards {
		shards[i] = NewSketch(0.01)
	}
	for i := 0; i < 40000; i++ {
		x := 25 * rng.ExpFloat64()
		whole.Add(x)
		shards[i%len(shards)].Add(x)
	}
	merged := NewSketch(0.01)
	for _, sh := range shards {
		merged.Merge(sh)
	}
	if merged.N() != whole.N() || merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merge header mismatch: n=%d/%d min=%v/%v max=%v/%v",
			merged.N(), whole.N(), merged.Min(), whole.Min(), merged.Max(), whole.Max())
	}
	// Sums accumulate in different orders, so they agree only to rounding.
	if math.Abs(merged.Sum()-whole.Sum()) > 1e-9*whole.Sum() {
		t.Fatalf("merge sum mismatch: %v vs %v", merged.Sum(), whole.Sum())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99, 0.999} {
		a, b := merged.Quantile(q), whole.Quantile(q)
		if a != b {
			t.Fatalf("q=%v: merged %v != whole %v", q, a, b)
		}
	}
}

func TestSketchMergeAlphaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a, b := NewSketch(0.01), NewSketch(0.02)
	b.Add(1)
	a.Merge(b)
}

func TestSketchReset(t *testing.T) {
	sk := NewSketch(0.01)
	for i := 1; i <= 100; i++ {
		sk.Add(float64(i))
	}
	sk.Reset()
	if sk.N() != 0 || sk.Quantile(0.5) != 0 {
		t.Fatal("reset did not clear")
	}
	sk.Add(9)
	if got := sk.Quantile(1); math.Abs(got-9) > 0.09 {
		t.Fatalf("post-reset add: %v", got)
	}
}

func TestSketchFracAbove(t *testing.T) {
	sk := NewSketch(0.01)
	for i := 1; i <= 1000; i++ {
		sk.Add(float64(i))
	}
	got := sk.FracAbove(900)
	if math.Abs(got-0.1) > 0.02 {
		t.Fatalf("FracAbove(900) = %v, want ~0.1", got)
	}
	if sk.FracAbove(2000) != 0 {
		t.Fatal("FracAbove beyond max should be 0")
	}
}

// TestSketchMemoryBound pins the scalability claim: 1M observations spanning
// five orders of magnitude stay within a few thousand buckets, versus 8 MB
// for the exact sample.
func TestSketchMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-sample feed is slow")
	}
	rng := rand.New(rand.NewSource(3))
	s := &Sample{}
	sk := NewSketch(DefaultSketchAlpha)
	for i := 0; i < 1_000_000; i++ {
		x := math.Exp(3 + 1.5*rng.NormFloat64()) // ~1e-1 .. 1e4 us
		s.Add(x)
		sk.Add(x)
	}
	if len(sk.bins) > 4096 {
		t.Fatalf("sketch grew to %d buckets", len(sk.bins))
	}
	// The footprint is the bucket storage plus about 96 B of header.
	if mem := 8*len(sk.bins) + 96; mem >= 8*s.N()/100 {
		t.Fatalf("sketch footprint %dB not <1%% of exact %dB", mem, 8*s.N())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		checkBound(t, s, sk, q)
	}
}
