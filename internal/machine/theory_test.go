package machine

import (
	"math"
	"testing"

	"umanycore/internal/icn"
	"umanycore/internal/queuetheory"
	"umanycore/internal/sched"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// queueOnlyConfig strips the machine down to a bare FCFS service center:
// one domain of c cores, hardware queueing with zero instruction costs and
// nothing crossing the ICN — so measured sojourn times, less the fixed
// pathUs, must match closed-form queueing theory. This validates the
// arrival, dispatch, and resource machinery everything else builds on.
func queueOnlyConfig(cores int) Config {
	return Config{
		Name:       "theory",
		Cores:      cores,
		FreqGHz:    2,
		PerfFactor: 1,
		Domains:    1,
		Policy: sched.Policy{
			HardwareRQ: true,
			// Zero-cost scheduling: the theoretical server.
		},
		RQCapacity:     1 << 16,
		NICBufCapacity: 1 << 16,
		Topo:           LeafSpineTopo,
		LeafSpineCfg:   icn.LeafSpineConfig{Pods: 1, LeavesPerPod: 1, L2PerPod: 1, L3Count: 1},
		ICNContention:  false,
	}
}

// pathUs is the fixed latency every request adds to its queueing-center
// sojourn: ingress and the hardware NIC on the way in, ingress on the way
// out.
var pathUs = (2*ingressLatency + hwNICDelay).Micros()

func runTheory(t *testing.T, cores int, distName string, meanUs, rps float64, seed int64) *Result {
	t.Helper()
	app, err := workload.SyntheticApp(distName, meanUs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return Run(queueOnlyConfig(cores), RunConfig{
		App: app, RPS: rps,
		Duration: 4 * sim.Second,
		Warmup:   400 * sim.Millisecond,
		Drain:    4 * sim.Second,
		Seed:     seed,
	})
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

// The simulator as an M/M/1 queue: mean sojourn within a few percent of
// theory at moderate and high utilization.
func TestSimMatchesMM1(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation")
	}
	const meanUs = 100.0
	mu := 1e6 / meanUs // services per second
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		lambda := rho * mu
		res := runTheory(t, 1, "exponential", meanUs, lambda, 7)
		_, w, err := queuetheory.MM1(lambda/1e6, mu/1e6) // per-μs rates → W in μs
		if err != nil {
			t.Fatal(err)
		}
		w += pathUs
		if e := relErr(res.Latency.Mean, w); e > 0.08 {
			t.Errorf("M/M/1 rho=%v: sim W=%v theory=%v (err %.1f%%)",
				rho, res.Latency.Mean, w, e*100)
		}
	}
}

// The simulator as an M/M/c queue (one domain, c cores).
func TestSimMatchesMMc(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation")
	}
	const meanUs = 100.0
	mu := 1.0 / meanUs // per μs
	for _, tc := range []struct {
		c   int
		rho float64
	}{
		{2, 0.7}, {8, 0.8}, {16, 0.6},
	} {
		lambda := tc.rho * mu * float64(tc.c)
		res := runTheory(t, tc.c, "exponential", meanUs, lambda*1e6, 11)
		_, w, err := queuetheory.MMc(lambda, mu, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		w += pathUs
		if e := relErr(res.Latency.Mean, w); e > 0.08 {
			t.Errorf("M/M/%d rho=%v: sim W=%v theory=%v (err %.1f%%)",
				tc.c, tc.rho, res.Latency.Mean, w, e*100)
		}
	}
}

// The simulator as an M/G/1 queue: deterministic service (halved waits) and
// heavy-tailed lognormal (inflated waits) both match Pollaczek–Khinchine.
func TestSimMatchesMG1(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation")
	}
	const meanUs = 100.0
	const rho = 0.7
	lambda := rho / meanUs // per μs

	det := runTheory(t, 1, "deterministic", meanUs, lambda*1e6, 13)
	_, wDet, err := queuetheory.MG1(lambda, meanUs, queuetheory.DetSecondMoment(meanUs))
	if err != nil {
		t.Fatal(err)
	}
	wDet += pathUs
	if e := relErr(det.Latency.Mean, wDet); e > 0.08 {
		t.Errorf("M/D/1: sim W=%v theory=%v (err %.1f%%)", det.Latency.Mean, wDet, e*100)
	}

	lgn := runTheory(t, 1, "lognormal", meanUs, lambda*1e6, 17)
	_, wLgn, err := queuetheory.MG1(lambda, meanUs, queuetheory.LognormalSecondMoment(meanUs, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	wLgn += pathUs
	// Heavy-tailed service: sampling noise in E[S²] is larger; allow 15%.
	if e := relErr(lgn.Latency.Mean, wLgn); e > 0.15 {
		t.Errorf("M/LN/1: sim W=%v theory=%v (err %.1f%%)", lgn.Latency.Mean, wLgn, e*100)
	}

	// Ordering: deterministic < exponential < lognormal sojourn.
	exp := runTheory(t, 1, "exponential", meanUs, lambda*1e6, 19)
	if !(det.Latency.Mean < exp.Latency.Mean && exp.Latency.Mean < lgn.Latency.Mean) {
		t.Errorf("service-variability ordering violated: det=%v exp=%v lgn=%v",
			det.Latency.Mean, exp.Latency.Mean, lgn.Latency.Mean)
	}
}

// P99 validation: the simulator's tail matches the conditional-exponential
// approximation for M/M/1 at high load.
func TestSimMatchesMM1Tail(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation")
	}
	const meanUs = 100.0
	const rho = 0.8
	lambda := rho / meanUs
	res := runTheory(t, 1, "exponential", meanUs, lambda*1e6, 23)
	// For M/M/1, sojourn is exponential with rate μ−λ: P99 = ln(100)/(μ−λ).
	p99 := math.Log(100)/(1/meanUs-lambda) + pathUs
	if e := relErr(res.Latency.P99, p99); e > 0.12 {
		t.Errorf("M/M/1 P99: sim=%v theory=%v (err %.1f%%)", res.Latency.P99, p99, e*100)
	}
}
