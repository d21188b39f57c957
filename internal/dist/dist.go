// Package dist provides the random-variate generators used by the workload
// models: service-time distributions (exponential, lognormal, bimodal,
// deterministic — paper §5 and §6.7), arrival processes (Poisson open-loop
// clients, and a two-state MMPP for the bursty Alibaba-like traces of §3.2),
// and a Zipf sampler for skewed service popularity.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Dist draws nonnegative values (our service times are durations).
type Dist interface {
	Sample(r *rand.Rand) float64
	// Mean returns the distribution's analytic mean.
	Mean() float64
	// Name identifies the distribution in reports.
	Name() string
}

// Deterministic always returns V.
type Deterministic struct{ V float64 }

// Sample implements Dist.
func (d Deterministic) Sample(*rand.Rand) float64 { return d.V }

// Mean implements Dist.
func (d Deterministic) Mean() float64 { return d.V }

// Name implements Dist.
func (d Deterministic) Name() string { return "deterministic" }

// Exponential has rate 1/MeanV.
type Exponential struct{ MeanV float64 }

// Sample implements Dist.
func (d Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() * d.MeanV }

// Mean implements Dist.
func (d Exponential) Mean() float64 { return d.MeanV }

// Name implements Dist.
func (d Exponential) Name() string { return "exponential" }

// Lognormal is parameterized by its *target* mean and the sigma of the
// underlying normal, matching how scheduling papers (e.g. Shinjuku) specify
// "lognormal service times with mean m". It carries its location mu,
// derived once by NewLognormal so that E[X] = mean; a draw is then one
// math.Exp of Exponent. Build it with NewLognormal: its fields are
// unexported so that no value can lack the location.
type Lognormal struct {
	mean, sigma, mu float64
}

// NewLognormal returns the lognormal with the given mean and underlying
// sigma, its location mu = log(mean) - sigma²/2 computed here once.
func NewLognormal(mean, sigma float64) Lognormal {
	return Lognormal{mean: mean, sigma: sigma, mu: math.Log(mean) - sigma*sigma/2}
}

// Sample implements Dist.
func (d Lognormal) Sample(r *rand.Rand) float64 { return math.Exp(d.Exponent(r)) }

// Exponent draws the normal variate a sample is the exponential of:
// Sample(r) is math.Exp(Exponent(r)) for an identically seeded r. A caller
// that only needs a function of the sample can bracket it with ExpBounds
// instead of calling math.Exp.
func (d Lognormal) Exponent(r *rand.Rand) float64 { return d.mu + d.sigma*r.NormFloat64() }

// Mean implements Dist.
func (d Lognormal) Mean() float64 { return d.mean }

// Name implements Dist.
func (d Lognormal) Name() string { return "lognormal" }

// Bimodal returns Lo with probability PLo, otherwise Hi. This is the classic
// heavy-tail stressor: mostly-short requests with occasional long ones.
type Bimodal struct {
	Lo, Hi float64
	PLo    float64
}

// Sample implements Dist.
func (d Bimodal) Sample(r *rand.Rand) float64 {
	if r.Float64() < d.PLo {
		return d.Lo
	}
	return d.Hi
}

// Mean implements Dist.
func (d Bimodal) Mean() float64 { return d.PLo*d.Lo + (1-d.PLo)*d.Hi }

// Name implements Dist.
func (d Bimodal) Name() string { return "bimodal" }

// Uniform draws uniformly from [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (d Uniform) Sample(r *rand.Rand) float64 { return d.Lo + (d.Hi-d.Lo)*r.Float64() }

// Mean implements Dist.
func (d Uniform) Mean() float64 { return (d.Lo + d.Hi) / 2 }

// Name implements Dist.
func (d Uniform) Name() string { return "uniform" }

// maxMean is the largest mean ByName accepts. Means are microseconds
// wherever the simulator samples them, so this is one second per
// operation. At that mean even the longest draw ByName's distributions can
// make (a lognormal about 1e5 times its mean) fits the simulator's
// picosecond clock.
const maxMean = 1e6

// CheckMean returns an error naming mean unless it lies in (0, maxMean]:
// a NaN, infinite, zero or negative mean yields no usable service time.
func CheckMean(mean float64) error {
	if !(mean > 0 && mean <= maxMean) {
		return fmt.Errorf("dist: mean %v outside (0, %g]", mean, float64(maxMean))
	}
	return nil
}

// ByName constructs one of the three synthetic distributions of paper §6.7
// with the given mean: "exponential", "lognormal" (sigma 1.0, matching a
// high-variance tail), or "bimodal" (99.5% short, 0.5% 10×-long, as in the
// Shinjuku methodology the paper cites). A mean CheckMean rejects is an
// error.
func ByName(name string, mean float64) (Dist, error) {
	if err := CheckMean(mean); err != nil {
		return nil, err
	}
	switch name {
	case "exponential", "exp":
		return Exponential{MeanV: mean}, nil
	case "lognormal", "lgn":
		return NewLognormal(mean, 1.0), nil
	case "bimodal", "bim":
		// Solve lo from mean = p*lo + (1-p)*10*lo with p = 0.995.
		p := 0.995
		lo := mean / (p + (1-p)*10)
		return Bimodal{Lo: lo, Hi: 10 * lo, PLo: p}, nil
	case "deterministic", "det":
		return Deterministic{V: mean}, nil
	default:
		return nil, fmt.Errorf("dist: unknown distribution %q", name)
	}
}

// Poisson is an open-loop Poisson arrival process: NextGap returns the gap
// to the next arrival for rate events/second, in seconds.
type Poisson struct{ Rate float64 }

// NextGap draws the next interarrival gap in seconds.
func (p Poisson) NextGap(r *rand.Rand) float64 {
	if p.Rate <= 0 {
		return math.Inf(1)
	}
	return r.ExpFloat64() / p.Rate
}

// PoissonCount draws a Poisson-distributed count with the given mean using
// inversion for small means and the normal approximation above 500 (counts
// that large only occur in the trace generator where ±1 is irrelevant).
func PoissonCount(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 500 {
		n := int(mean + math.Sqrt(mean)*r.NormFloat64() + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// MMPP2 is a two-state Markov-modulated Poisson process: a LOW state with
// RateLo and a burst state with RateHi; dwell times in each state are
// exponential with the given means (seconds). It is the arrival model for
// the bursty per-server load of paper §3.2 (Fig 2).
type MMPP2 struct {
	RateLo, RateHi     float64
	MeanDwellLo        float64
	MeanDwellHi        float64
	inBurst            bool
	stateTimeRemaining float64
}

// NextGap returns the next interarrival gap in seconds, advancing the
// modulating chain as virtual time passes.
func (m *MMPP2) NextGap(r *rand.Rand) float64 {
	total := 0.0
	for {
		if m.stateTimeRemaining <= 0 {
			m.inBurst = !m.inBurst
			if m.inBurst {
				m.stateTimeRemaining = r.ExpFloat64() * m.MeanDwellHi
			} else {
				m.stateTimeRemaining = r.ExpFloat64() * m.MeanDwellLo
			}
		}
		rate := m.RateLo
		if m.inBurst {
			rate = m.RateHi
		}
		gap := r.ExpFloat64() / rate
		if gap <= m.stateTimeRemaining {
			m.stateTimeRemaining -= gap
			return total + gap
		}
		// The state flips before the putative arrival: consume the dwell
		// remainder and redraw in the new state (memorylessness makes this
		// exact).
		total += m.stateTimeRemaining
		m.stateTimeRemaining = 0
	}
}

// MeanRate returns the long-run average arrival rate.
func (m *MMPP2) MeanRate() float64 {
	wLo, wHi := m.MeanDwellLo, m.MeanDwellHi
	return (m.RateLo*wLo + m.RateHi*wHi) / (wLo + wHi)
}

// Zipf draws values in [0, N) with P(k) proportional to 1/(k+1)^S.
// It wraps math/rand's sampler with a friendlier constructor.
type Zipf struct {
	N int
	S float64
}

// Sampler materializes the sampler against a specific stream.
func (z Zipf) Sampler(r *rand.Rand) *rand.Zipf {
	s := z.S
	if s <= 1 {
		s = 1.01 // rand.NewZipf requires s > 1
	}
	return rand.NewZipf(r, s, 1, uint64(z.N-1))
}
