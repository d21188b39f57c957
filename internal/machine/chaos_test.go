package machine

import (
	"math/rand"
	"testing"

	"umanycore/internal/sched"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// TestChaosConservation drives randomized machine configurations and checks
// the accounting invariants that must hold regardless of parameters: every
// submitted root is eventually completed, rejected, or still in flight;
// completed trees produce exactly their tree's invocation count; latency
// samples are positive and at least the ingress+egress floor.
func TestChaosConservation(t *testing.T) {
	apps := workload.SocialNetworkApps()
	r := rand.New(rand.NewSource(20260706))
	for trial := 0; trial < 12; trial++ {
		var cfg Config
		switch trial % 3 {
		case 0:
			cfg = UManycoreConfig()
		case 1:
			cfg = ScaleOutConfig()
		case 2:
			cfg = ServerClassConfig(40)
		}
		// Randomize the knobs that interact with accounting.
		switch r.Intn(4) {
		case 0:
			cfg.Policy.WorkStealing = !cfg.Policy.HardwareRQ
			cfg.Policy.StealCycles = 500 + r.Intn(2000)
		case 1:
			if cfg.Policy.HardwareRQ {
				cfg.RQCapacity = 2 + r.Intn(8)
				cfg.NICBufCapacity = r.Intn(8)
			}
		case 2:
			cfg.ICNContention = r.Intn(2) == 0
			cfg.Policy.CSCycles = r.Intn(6000)
		case 3:
			cfg.TreeAffinity = cfg.Placement == RandomPlacement
			cfg.RemoteCallFrac = r.Float64() * 0.8
			cfg.RemoteRTT = sim.Time(r.Intn(50)) * sim.Microsecond
		}
		app := apps[r.Intn(len(apps))]
		rps := float64(1000 + r.Intn(20000))
		res := Run(cfg, RunConfig{
			App: app, RPS: rps,
			Duration: 60 * sim.Millisecond,
			Warmup:   10 * sim.Millisecond,
			Drain:    2 * sim.Second,
			Seed:     int64(trial + 1),
		})
		total := int64(res.Completed) + res.Unfinished
		if rejRoots := int64(res.Submitted) - total; rejRoots < 0 {
			t.Fatalf("trial %d (%s/%s@%v): negative rejected roots: %+v",
				trial, cfg.Name, app.Name, rps, res)
		}
		if res.Unfinished < 0 {
			t.Fatalf("trial %d: negative unfinished: %+v", trial, res)
		}
		if res.Completed > 0 && res.Latency.N > 0 {
			floor := 2 * ingressLatency.Micros()
			if res.Latency.Mean < floor {
				t.Fatalf("trial %d: mean latency %v below physical floor %v",
					trial, res.Latency.Mean, floor)
			}
		}
		// Without rejections, invocation counts are exact multiples.
		if res.Rejected == 0 && res.Unfinished == 0 {
			per := uint64(app.Stats().Invocations)
			if res.Invocations != per*res.Completed {
				t.Fatalf("trial %d (%s/%s): invocations %d != %d × %d",
					trial, cfg.Name, app.Name, res.Invocations, per, res.Completed)
			}
		}
	}
}

// TestChaosDrainCompletes verifies that with a long enough drain every
// non-rejected request finishes — no invocation is ever lost or deadlocked —
// across policies.
func TestChaosDrainCompletes(t *testing.T) {
	apps := workload.SocialNetworkApps()
	policies := []sched.Policy{
		sched.HardwareSched(),
		sched.ShinjukuSched(),
		sched.ZygOSSched(),
		// A distributed software queue with no dispatcher and no
		// stealing, at a stock kernel's costs.
		{CSCycles: 5000, DequeueCycles: 1500, EnqueueCycles: 800},
	}
	for i, pol := range policies {
		cfg := ScaleOutConfig()
		cfg.Policy = pol
		if pol.HardwareRQ {
			cfg.RQCapacity = 64
			cfg.NICBufCapacity = 256
		}
		res := Run(cfg, RunConfig{
			App: apps[i%len(apps)], RPS: 4000,
			Duration: 80 * sim.Millisecond,
			Warmup:   10 * sim.Millisecond,
			Drain:    3 * sim.Second,
			Seed:     int64(100 + i),
		})
		if res.Unfinished != 0 {
			t.Fatalf("policy %d left %d unfinished requests", i, res.Unfinished)
		}
		if res.Completed+res.Rejected == 0 {
			t.Fatalf("policy %d completed nothing", i)
		}
	}
}

// TestSeedsChangeOutcomes guards against accidentally shared RNG state:
// different seeds must produce different samples (while the same seed is
// bit-identical — covered by TestRunDeterministic).
func TestSeedsChangeOutcomes(t *testing.T) {
	app := appByName(t, "SGraph")
	a := Run(UManycoreConfig(), RunConfig{App: app, RPS: 4000,
		Duration: 100 * sim.Millisecond, Warmup: 20 * sim.Millisecond, Seed: 1})
	b := Run(UManycoreConfig(), RunConfig{App: app, RPS: 4000,
		Duration: 100 * sim.Millisecond, Warmup: 20 * sim.Millisecond, Seed: 2})
	if a.Latency == b.Latency && a.Submitted == b.Submitted {
		t.Fatal("different seeds produced identical runs")
	}
}
