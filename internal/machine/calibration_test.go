package machine

import (
	"math"
	"math/rand"
	"testing"

	"umanycore/internal/coherence"
	"umanycore/internal/memmodel"
	"umanycore/internal/uarch"
)

// TestCalibration runs, for each calibrated constant, the detailed model
// the machine abstracts it from, and fails when the constant leaves the
// stated band around the model's measurement: a changed constant, or a
// changed model, cannot stay green. DESIGN.md §5 lists the measured values.
func TestCalibration(t *testing.T) {
	cases := []struct {
		name     string
		constant float64
		// tol is the band: the constant must lie within tol × measured of
		// the measurement.
		tol     float64
		measure func(t *testing.T) float64
	}{
		{"villageResumePenaltyCycles", villageResumePenaltyCycles, 0.25, func(*testing.T) float64 {
			return migratoryResume(coherence.VillageConfig())
		}},
		{"coherencePenaltyCycles", coherencePenaltyCycles, 0.25, func(*testing.T) float64 {
			return migratoryResume(coherence.GlobalConfig())
		}},
		{"serverClassPerf", serverClassPerf, 0.175, func(t *testing.T) float64 {
			// The big core's speedup on microservice code; on monolithic
			// code it is larger (Fig 1's argument quantified).
			micro := memmodel.PerfFactor(uarch.Microservice, 150000, 42)
			if mono := memmodel.PerfFactor(uarch.Monolithic, 150000, 42); mono <= micro {
				t.Errorf("monolithic perf factor %v should exceed the microservice one %v", mono, micro)
			}
			return micro
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.measure(t)
			t.Logf("%s = %v, model %.3f", c.name, c.constant, m)
			if math.Abs(c.constant-m) > c.tol*m {
				t.Errorf("%s = %v, but the model measures %.3f: outside the ±%g%% band [%.3f, %.3f]",
					c.name, c.constant, m, 100*c.tol, m*(1-c.tol), m*(1+c.tol))
			}
		})
	}
}

// migratoryResume is the mean coherence cost of resuming a blocked request
// on another core of a domain with directory configuration cfg. A saved
// request context is "a few hundreds of bytes" (§4.4): the resuming core
// re-touches about two dirty lines of it on the coherence fabric, and the
// rest streams from the Request Context Memory or the L2.
func migratoryResume(cfg coherence.Config) float64 {
	return coherence.Migratory(coherence.New(cfg), 5000, 2, rand.New(rand.NewSource(2))).MeanResumeCycles
}
