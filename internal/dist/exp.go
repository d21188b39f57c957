package dist

import "math"

// expTableBits sets the size of the 2^(j/64) table fastExp reduces against.
const expTableBits = 6

// expTable holds 2^(j/64) for j in [0, 64).
var expTable = func() (t [1 << expTableBits]float64) {
	for j := range t {
		t[j] = math.Exp2(float64(j) / (1 << expTableBits))
	}
	return t
}()

// expSlack is the half-width ExpBounds puts around fastExp, relative to its
// value: 2^12 to 2^13 ulps. fastExp is within about 2^-50 of math.Exp (both
// are a few ulps from e^x), so the enclosure holds with thousands of ulps
// to spare.
const expSlack = 0x1p-40

// ExpBounds returns an enclosure lo ≤ math.Exp(x) ≤ hi whose relative width
// is about 2^-39, or ok false when x is NaN or outside (-700, 700). The
// enclosure is for the float64 math.Exp returns, not only for e^x, so a
// caller that maps both ends through a monotone function f and finds
// f(lo) == f(hi) knows f(math.Exp(x)) exactly without calling math.Exp.
// Outside the range the caller calls math.Exp itself.
func ExpBounds(x float64) (lo, hi float64, ok bool) {
	if !(x > -700 && x < 700) {
		return 0, 0, false
	}
	y := fastExp(x)
	return y * (1 - expSlack), y * (1 + expSlack), true
}

// fastExp approximates e^x for x in (-700, 700) by table reduction:
// x = k·ln2/64 + r with |r| ≤ ln2/128, e^x = 2^(k>>6) · 2^((k&63)/64) · e^r,
// and e^r by a degree-5 polynomial (truncation error below 2^-54). Every
// step is a handful of independent multiplies and adds, so unlike the
// amd64 assembly math.Exp its latency overlaps the code around it. Inside
// the range the result stays a normal float64, so the power of two is
// applied by adding to the exponent field.
func fastExp(x float64) float64 {
	const (
		n = 1 << expTableBits
		// shift rounds x·n/ln2 to an integer in its low mantissa bits.
		shift = 0x1.8p52
		// ln2Hi has its low 21 bits zero, so kf·ln2Hi is exact for the
		// |kf| < 2^16 this range yields.
		ln2Hi = 6.93147180369123816490e-01 / n
		ln2Lo = 1.90821492927058770002e-10 / n
	)
	kf := x*(n/math.Ln2) + shift
	k := int64(math.Float64bits(kf) - math.Float64bits(shift))
	kf -= shift
	r := x - kf*ln2Hi - kf*ln2Lo
	r2 := r * r
	p := r + r2*((1.0/2+r*(1.0/6))+r2*(1.0/24+r*(1.0/120)))
	t := expTable[k&(n-1)]
	return math.Float64frombits(math.Float64bits(t+t*p) + uint64(k>>expTableBits)<<52)
}
