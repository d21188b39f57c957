package dist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMean(d Dist, n int, seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{V: 42}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 42 {
			t.Fatal("deterministic varied")
		}
	}
	if d.Mean() != 42 || d.Name() != "deterministic" {
		t.Fatal("metadata wrong")
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{MeanV: 120}
	got := sampleMean(d, 200000, 1)
	if math.Abs(got-120)/120 > 0.02 {
		t.Fatalf("exp sample mean = %v, want ~120", got)
	}
	if d.Mean() != 120 {
		t.Fatal("Mean()")
	}
}

func TestLognormalMean(t *testing.T) {
	d := NewLognormal(100, 1.0)
	got := sampleMean(d, 400000, 2)
	if math.Abs(got-100)/100 > 0.05 {
		t.Fatalf("lognormal sample mean = %v, want ~100", got)
	}
	// Lognormal should have a heavy right tail: P99 >> mean.
	r := rand.New(rand.NewSource(3))
	var over int
	for i := 0; i < 100000; i++ {
		if d.Sample(r) > 300 {
			over++
		}
	}
	if over == 0 {
		t.Fatal("lognormal has no tail")
	}
}

func TestBimodal(t *testing.T) {
	d := Bimodal{Lo: 10, Hi: 100, PLo: 0.9}
	if want := 0.9*10 + 0.1*100; d.Mean() != want {
		t.Fatalf("Mean = %v, want %v", d.Mean(), want)
	}
	r := rand.New(rand.NewSource(4))
	lo, hi := 0, 0
	for i := 0; i < 100000; i++ {
		switch d.Sample(r) {
		case 10:
			lo++
		case 100:
			hi++
		default:
			t.Fatal("bimodal produced a third value")
		}
	}
	frac := float64(lo) / float64(lo+hi)
	if math.Abs(frac-0.9) > 0.01 {
		t.Fatalf("lo fraction = %v", frac)
	}
}

func TestUniform(t *testing.T) {
	d := Uniform{Lo: 5, Hi: 15}
	if d.Mean() != 10 {
		t.Fatal("Mean")
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		x := d.Sample(r)
		if x < 5 || x >= 15 {
			t.Fatalf("uniform out of range: %v", x)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"exponential", "exp", "lognormal", "lgn", "bimodal", "bim", "deterministic", "det"} {
		d, err := ByName(name, 50)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if math.Abs(d.Mean()-50)/50 > 1e-9 {
			t.Fatalf("ByName(%q).Mean() = %v, want 50", name, d.Mean())
		}
	}
	if _, err := ByName("cauchy", 1); err == nil {
		t.Fatal("unknown name did not error")
	}
	// A mean that yields no usable service time is an error naming it.
	for _, mean := range []float64{0, -5, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), maxMean * 2} {
		_, err := ByName("lognormal", mean)
		if err == nil {
			t.Fatalf("ByName(lognormal, %v) accepted the mean", mean)
		}
		if !strings.Contains(err.Error(), fmt.Sprint(mean)) {
			t.Fatalf("ByName(lognormal, %v) error %q does not name the mean", mean, err)
		}
	}
	if _, err := ByName("exp", maxMean); err != nil {
		t.Fatalf("ByName at maxMean: %v", err)
	}
}

// NewLognormal computes its location once; every draw must be bit-identical
// to the per-draw formula it replaced, exp(log(mean) - sigma²/2 + sigma·Z),
// from an identically seeded stream.
func TestLognormalMatchesPerDrawFormula(t *testing.T) {
	for _, c := range []struct{ mean, sigma float64 }{
		{100, 1}, {60, 0.4}, {10, 1.5}, {10, 0}, {0.35, 0.4}, {2.5e-3, 1},
	} {
		d := NewLognormal(c.mean, c.sigma)
		got, ref := rand.New(rand.NewSource(17)), rand.New(rand.NewSource(17))
		for i := 0; i < 100000; i++ {
			x := d.Sample(got)
			mu := math.Log(c.mean) - c.sigma*c.sigma/2
			want := math.Exp(mu + c.sigma*ref.NormFloat64())
			if math.Float64bits(x) != math.Float64bits(want) {
				t.Fatalf("NewLognormal(%v, %v) draw %d = %v, per-draw formula gives %v", c.mean, c.sigma, i, x, want)
			}
		}
		if d.Mean() != c.mean {
			t.Fatalf("Mean() = %v, want %v", d.Mean(), c.mean)
		}
	}
}

// FuzzByName: for any name and mean, ByName either returns an error or a
// distribution whose samples are all finite and nonnegative.
func FuzzByName(f *testing.F) {
	for _, name := range []string{"exponential", "lognormal", "bimodal", "deterministic", "cauchy", ""} {
		f.Add(name, 50.0)
	}
	for _, mean := range []float64{-5, 0, math.NaN(), math.Inf(1), 5e-324, 1e-300, maxMean, 1e308} {
		f.Add("lgn", mean)
	}
	f.Fuzz(func(t *testing.T, name string, mean float64) {
		d, err := ByName(name, mean)
		if err != nil {
			return
		}
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			if x := d.Sample(r); math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				t.Fatalf("ByName(%q, %v) sample %d = %v", name, mean, i, x)
			}
		}
	})
}

func TestBimodalByNameShape(t *testing.T) {
	d, _ := ByName("bimodal", 100)
	b := d.(Bimodal)
	if b.Hi != 10*b.Lo {
		t.Fatalf("Hi = %v, Lo = %v", b.Hi, b.Lo)
	}
	if b.PLo != 0.995 {
		t.Fatalf("PLo = %v", b.PLo)
	}
}

func TestPoissonGapMean(t *testing.T) {
	p := Poisson{Rate: 1000}
	r := rand.New(rand.NewSource(6))
	var sum float64
	n := 100000
	for i := 0; i < n; i++ {
		sum += p.NextGap(r)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.001)/0.001 > 0.02 {
		t.Fatalf("gap mean = %v, want ~0.001", mean)
	}
	if g := (Poisson{Rate: 0}).NextGap(r); !math.IsInf(g, 1) {
		t.Fatalf("zero-rate gap = %v", g)
	}
}

func TestPoissonCount(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, mean := range []float64{0.5, 3, 50, 800} {
		var sum float64
		n := 20000
		for i := 0; i < n; i++ {
			sum += float64(PoissonCount(r, mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean)/mean > 0.05 {
			t.Fatalf("PoissonCount mean for %v = %v", mean, got)
		}
	}
	if PoissonCount(r, 0) != 0 || PoissonCount(r, -1) != 0 {
		t.Fatal("nonpositive mean should give 0")
	}
}

func TestMMPP2MeanRate(t *testing.T) {
	m := &MMPP2{RateLo: 400, RateHi: 2000, MeanDwellLo: 0.9, MeanDwellHi: 0.1}
	want := (400*0.9 + 2000*0.1) / 1.0
	if math.Abs(m.MeanRate()-want) > 1e-9 {
		t.Fatalf("MeanRate = %v, want %v", m.MeanRate(), want)
	}
	// Empirical rate over simulated time should approach MeanRate.
	r := rand.New(rand.NewSource(8))
	var elapsed float64
	n := 200000
	for i := 0; i < n; i++ {
		elapsed += m.NextGap(r)
	}
	got := float64(n) / elapsed
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("empirical rate = %v, want ~%v", got, want)
	}
}

func TestMMPP2Burstiness(t *testing.T) {
	// Count arrivals per 1-second window; the MMPP should show much higher
	// variance across windows than a Poisson of the same mean rate.
	m := &MMPP2{RateLo: 300, RateHi: 1800, MeanDwellLo: 2.0, MeanDwellHi: 0.4}
	r := rand.New(rand.NewSource(9))
	counts := windowCounts(func() float64 { return m.NextGap(r) }, 200)
	p := Poisson{Rate: m.MeanRate()}
	r2 := rand.New(rand.NewSource(9))
	pcounts := windowCounts(func() float64 { return p.NextGap(r2) }, 200)
	if varOf(counts) < 3*varOf(pcounts) {
		t.Fatalf("MMPP not bursty: var %v vs poisson var %v", varOf(counts), varOf(pcounts))
	}
}

func windowCounts(next func() float64, windows int) []float64 {
	counts := make([]float64, windows)
	t := 0.0
	for {
		t += next()
		w := int(t)
		if w >= windows {
			return counts
		}
		counts[w]++
	}
}

func varOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return v / float64(len(xs))
}

func TestZipfSkew(t *testing.T) {
	z := Zipf{N: 100, S: 1.2}
	r := rand.New(rand.NewSource(10))
	s := z.Sampler(r)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[s.Uint64()]++
	}
	if counts[0] <= counts[50] {
		t.Fatal("zipf not skewed toward low ranks")
	}
	// s <= 1 falls back to a legal exponent rather than panicking.
	z2 := Zipf{N: 10, S: 0.5}
	if z2.Sampler(r) == nil {
		t.Fatal("fallback sampler nil")
	}
}

// Property: all distributions produce nonnegative samples.
func TestNonnegativeProperty(t *testing.T) {
	dists := []Dist{
		Exponential{MeanV: 10},
		NewLognormal(10, 1.5),
		Bimodal{Lo: 1, Hi: 100, PLo: 0.99},
		Uniform{Lo: 0, Hi: 5},
		Deterministic{V: 3},
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for _, d := range dists {
			for i := 0; i < 100; i++ {
				if d.Sample(r) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
