package machine

import (
	"testing"

	"umanycore/internal/obs"
)

// The observability layer's zero-overhead contract: with RunConfig.Obs nil,
// every instrumentation site reduces to a nil-guarded branch, so a run must
// cost the same time and exactly the same allocations as before the layer
// existed. TestObsOffZeroAllocDelta enforces the allocations; perfbench
// measures the time.

// BenchmarkMachineRunObsOff is the disabled-instrumentation benchmark —
// compare against BenchmarkMachineRun (identical workload) and the ObsOn
// variant below.
func BenchmarkMachineRunObsOff(b *testing.B) {
	cfg := UManycoreConfig()
	rc := benchRunConfig(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(cfg, rc)
		if res.Obs != nil {
			b.Fatal("obs-off run carried an obs payload")
		}
	}
}

// BenchmarkMachineRunObsOn measures the enabled cost (span recording +
// metrics) for the same workload — the price of a traced profiling run.
func BenchmarkMachineRunObsOn(b *testing.B) {
	cfg := UManycoreConfig()
	rc := benchRunConfig(42)
	rc.Obs = obs.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(cfg, rc)
		if res.Obs == nil || len(res.Obs.Spans) == 0 {
			b.Fatal("obs-on run recorded no spans")
		}
	}
}

// obsOffBaselineAllocs is the allocs/op of BenchmarkMachineRun with the
// observability layer disabled. The simulation is deterministic, so the
// count is stable run to run; update the constant only when a deliberate
// change to the machine model or to the simulator's allocation behaviour
// moves it.
const obsOffBaselineAllocs = 1122

// TestObsOffZeroAllocDelta asserts the allocation half of the zero-overhead
// contract: with RunConfig.Obs nil, a run allocates exactly what it did
// before the layer existed. An unguarded instrumentation site that builds a
// span, closure, or string on the disabled path shows up here immediately.
func TestObsOffZeroAllocDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	cfg := UManycoreConfig()
	rc := benchRunConfig(42)
	Run(cfg, rc) // warm the engine pool and workload caches

	got := testing.AllocsPerRun(3, func() {
		Run(cfg, rc)
	})
	// 0.5% headroom absorbs allocation jitter (an engine made fresh, when
	// concurrent runs hold the pooled ones, re-grows its heap); the disabled
	// layer itself must contribute nothing.
	tolerance := 0.005 * obsOffBaselineAllocs
	delta := got - obsOffBaselineAllocs
	if delta < 0 {
		delta = -delta
	}
	if delta > tolerance {
		t.Fatalf("obs-off run allocates %.0f/op, baseline %d/op (delta %.0f > tolerance %.0f)",
			got, obsOffBaselineAllocs, delta, tolerance)
	}
}
