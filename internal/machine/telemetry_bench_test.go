package machine

import (
	"testing"

	"umanycore/internal/telemetry"
)

// The streaming telemetry layer inherits the observability layer's
// zero-overhead contract: with RunConfig.Telemetry nil, the only new code
// on a run's path is one nil-guarded branch in the completion event, so a
// run must allocate exactly what it did before the layer existed.
// TestTelemetryOffZeroAllocDelta enforces it; perfbench measures the time.

// BenchmarkMachineRunTelemetryOff is the disabled-sampler benchmark —
// compare against BenchmarkMachineRunObsOff (identical workload).
func BenchmarkMachineRunTelemetryOff(b *testing.B) {
	cfg := UManycoreConfig()
	rc := benchRunConfig(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(cfg, rc)
		if res.Telemetry != nil {
			b.Fatal("telemetry-off run carried a telemetry payload")
		}
	}
}

// BenchmarkMachineRunTelemetryOn measures the enabled cost: per-interval
// snapshots of every instrument, the latency sketch, and the watchdog.
func BenchmarkMachineRunTelemetryOn(b *testing.B) {
	cfg := UManycoreConfig()
	rc := benchRunConfig(42)
	rc.Telemetry = &telemetry.Options{Rules: telemetry.DefaultRules(500)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(cfg, rc)
		if res.Telemetry == nil || res.Telemetry.Sketch.N() == 0 {
			b.Fatal("telemetry-on run recorded nothing")
		}
	}
}

// TestTelemetryOffZeroAllocDelta asserts the allocation half of the
// contract against the same baseline as TestObsOffZeroAllocDelta: a
// telemetry-off run allocates exactly what it did before the layer
// existed.
func TestTelemetryOffZeroAllocDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	cfg := UManycoreConfig()
	rc := benchRunConfig(42)
	rc.Telemetry = nil
	Run(cfg, rc) // warm the engine pool and workload caches

	got := testing.AllocsPerRun(3, func() {
		res := Run(cfg, rc)
		if res.Telemetry != nil {
			t.Fatal("telemetry-off run carried a telemetry payload")
		}
	})
	tolerance := 0.005 * obsOffBaselineAllocs
	delta := got - obsOffBaselineAllocs
	if delta < 0 {
		delta = -delta
	}
	if delta > tolerance {
		t.Fatalf("telemetry-off run allocates %.0f/op, baseline %d/op (delta %.0f > tolerance %.0f)",
			got, obsOffBaselineAllocs, delta, tolerance)
	}
}
