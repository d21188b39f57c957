package dist

import (
	"math"
	"math/rand"
	"testing"
)

// checkBounds asserts ExpBounds' contract at x: no enclosure for NaN or x
// outside (-700, 700), and otherwise lo ≤ math.Exp(x) ≤ hi with both ends
// finite and positive.
func checkBounds(t *testing.T, x float64) {
	t.Helper()
	lo, hi, ok := ExpBounds(x)
	if inRange := x > -700 && x < 700; ok != inRange {
		t.Fatalf("ExpBounds(%v) ok = %v, want %v", x, ok, inRange)
	}
	if !ok {
		return
	}
	if y := math.Exp(x); !(lo <= y && y <= hi) {
		t.Fatalf("ExpBounds(%v) = [%v, %v] misses math.Exp = %v", x, lo, hi, y)
	}
	if !(lo > 0 && hi < math.Inf(1)) {
		t.Fatalf("ExpBounds(%v) = [%v, %v], want finite positive ends", x, lo, hi)
	}
}

// TestExpBoundsEdges checks the contract on the values where a table
// reduction goes wrong first: NaN, the infinities, zeros, subnormal x,
// the range edges and their neighbours, and x whose math.Exp is subnormal
// or overflows (both outside the range, so no enclosure).
func TestExpBoundsEdges(t *testing.T) {
	xs := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e-17, -1e-17,
		-700, 700, -745.2, -740, -708.5, 709.8, 710, 1e300, -1e300,
		math.MaxFloat64, -math.MaxFloat64,
	}
	for _, edge := range []float64{-700, 700} {
		for _, toward := range []float64{0, math.Inf(1), math.Inf(-1)} {
			x := edge
			for i := 0; i < 4; i++ {
				x = math.Nextafter(x, toward)
				xs = append(xs, x)
			}
		}
	}
	for _, x := range xs {
		checkBounds(t, x)
	}
}

// TestExpBoundsProperty checks the contract on random float64 bit patterns
// (every exponent, NaN payloads and infinities included) and on random x
// spread over the whole range.
func TestExpBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000000; i++ {
		checkBounds(t, math.Float64frombits(rng.Uint64()))
		checkBounds(t, (rng.Float64()*2-1)*710)
	}
}

// FuzzExpBounds fuzzes the contract over any float64.
func FuzzExpBounds(f *testing.F) {
	for _, x := range []float64{0, -700, 700, math.NaN(), math.Inf(-1), 3.5, -745} {
		f.Add(x)
	}
	f.Fuzz(checkBounds)
}

// TestFastExpAccuracy sweeps x over [-30, 30] densely, plus both
// neighbours of every reduction point k·ln2/64 and of every midpoint
// between two (where |r| is largest), and requires fastExp to lie within
// 2^-44 of math.Exp, relative. The enclosure allows 2^-40; fastExp lands
// over a thousand times closer than that, and the gap is what keeps
// math.Exp inside the enclosure.
func TestFastExpAccuracy(t *testing.T) {
	var worst float64
	check := func(x float64) {
		y := math.Exp(x)
		if e := math.Abs(fastExp(x)-y) / y; e > worst {
			worst = e
			if e > 0x1p-44 {
				t.Fatalf("fastExp(%v) = %v, math.Exp %v: relative error %g", x, fastExp(x), y, e)
			}
		}
	}
	const n = 10000000
	for i := 0; i <= n; i++ {
		check(-30 + 60*float64(i)/n)
	}
	for k := -2800.0; k <= 2800; k += 0.5 {
		x := k * math.Ln2 / 64
		check(math.Nextafter(x, math.Inf(-1)))
		check(x)
		check(math.Nextafter(x, math.Inf(1)))
	}
	t.Logf("largest relative error %g (2^%.1f)", worst, math.Log2(worst))
}
