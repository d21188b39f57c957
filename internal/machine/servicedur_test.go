package machine

import (
	"math/rand"
	"testing"

	"umanycore/internal/dist"
	"umanycore/internal/sim"
)

// refServiceDur is the duration expression serviceDur replaced: the sample
// from Dist.Sample, times demand when positive, over perf. It is the
// specification serviceDur is checked against bit for bit.
func refServiceDur(d dist.Dist, r *rand.Rand, demand, perf float64) sim.Time {
	us := d.Sample(r)
	if demand > 0 {
		us *= demand
	}
	return sim.FromMicros(us / perf)
}

// TestServiceDurMatchesExactExpression draws service times through
// serviceDur and through refServiceDur from identically seeded streams and
// requires identical durations and identical stream positions afterwards.
// It covers the catalog's lognormals (sigma 0.4), the synthetic one
// (sigma 1) at the smallest and largest means ByName accepts, lognormals
// whose exponents leave ExpBounds' range, a non-lognormal, replay demands
// and the machines' performance divisors, homogeneous and big-village. It
// fails unless both the enclosure's answer and the math.Exp fallback ran.
func TestServiceDurMatchesExactExpression(t *testing.T) {
	dists := []dist.Dist{
		dist.NewLognormal(10, 0.4), dist.NewLognormal(60, 0.4), dist.NewLognormal(350, 0.4),
		dist.NewLognormal(100, 1), dist.NewLognormal(2.5e-3, 1), dist.NewLognormal(1e6, 1),
		dist.NewLognormal(1, 40), // exponents mostly below -700
		dist.Exponential{MeanV: 50},
	}
	demands := []float64{0, -1, 0.37, 1, 2.5, 9.75}
	perfs := []float64{smallCorePerf, serverClassPerf, smallCorePerf * 1.65, 1.0 / 3}
	var fast, exact, guarded int
	for seed := int64(0); seed < 10; seed++ {
		for di, d := range dists {
			for _, demand := range demands {
				for _, perf := range perfs {
					got := rand.New(rand.NewSource(seed))
					want := rand.New(rand.NewSource(seed))
					probe := rand.New(rand.NewSource(seed))
					for i := 0; i < 500; i++ {
						g, w := serviceDur(d, got, demand, perf), refServiceDur(d, want, demand, perf)
						if g != w {
							t.Fatalf("dist %d seed %d demand %v perf %v draw %d: serviceDur %d ps, reference %d ps",
								di, seed, demand, perf, i, g, w)
						}
						ln, ok := d.(dist.Lognormal)
						if !ok {
							continue
						}
						lo, hi, ok := dist.ExpBounds(ln.Exponent(probe))
						switch {
						case !ok:
							guarded++
						case scaleDur(lo, demand, perf) == scaleDur(hi, demand, perf):
							fast++
						default:
							exact++
						}
					}
					if got.Int63() != want.Int63() {
						t.Fatalf("dist %d seed %d: serviceDur left its stream at another position", di, seed)
					}
				}
			}
		}
	}
	if fast == 0 || exact == 0 || guarded == 0 {
		t.Fatalf("paths reached: enclosure %d, math.Exp fallback %d, range guard %d; want all", fast, exact, guarded)
	}
	t.Logf("lognormal draws: enclosure %d, math.Exp fallback %d, range guard %d", fast, exact, guarded)
}
