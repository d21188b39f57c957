package machine

import (
	"runtime"
	"testing"

	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// benchRunConfig is a short but representative mixed run.
func benchRunConfig(seed int64) RunConfig {
	return RunConfig{
		App:      workload.SocialNetworkApps()[0],
		Mix:      workload.SocialNetworkMix(),
		RPS:      10000,
		Duration: 30 * sim.Millisecond,
		Warmup:   5 * sim.Millisecond,
		Drain:    120 * sim.Millisecond,
		Seed:     seed,
	}
}

// BenchmarkMachineRun measures one full machine simulation — the unit of
// work the sweep runner fans out — with allocation reporting so the engine
// reuse and event free-list wins are visible.
func BenchmarkMachineRun(b *testing.B) {
	cfg := UManycoreConfig()
	rc := benchRunConfig(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(cfg, rc)
		if res.Completed == 0 {
			b.Fatal("benchmark run completed no requests")
		}
	}
}

// BenchmarkMachineRunScaleOut exercises the software-scheduler path, whose
// per-event overhead profile differs from the hardware-RQ path.
func BenchmarkMachineRunScaleOut(b *testing.B) {
	cfg := ScaleOutConfig()
	rc := benchRunConfig(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(cfg, rc)
		if res.Completed == 0 {
			b.Fatal("benchmark run completed no requests")
		}
	}
}

// BenchmarkMachineNew measures constructing one machine per architecture —
// the set-up every sweep cell and every fleet server pays before its first
// event — with its bytes and allocations.
func BenchmarkMachineNew(b *testing.B) {
	app := workload.SocialNetworkApps()[0]
	for _, a := range []struct {
		name string
		cfg  Config
	}{
		{"uManycore", UManycoreConfig()},
		{"ServerClass", ServerClassConfig(40)},
		{"ScaleOut", ScaleOutConfig()},
	} {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(sim.NewEngine(1), a.cfg, app)
			}
		})
	}
}

// uManycoreNewBytes is the heap bytes one uManycore machine.New allocates
// (BenchmarkMachineNew/uManycore's B/op). Most of it is the slab-built
// cores, ICN links and core lists; the hardware RQs' rings start at a few
// slots each and grow only under load. Update the constant only when a
// deliberate change to what a machine allocates moves it.
const uManycoreNewBytes = 146570

// TestMachineNewBytes pins uManycore construction bytes within 1%, in both
// directions: a per-village or per-core structure that starts allocating
// its worst case again shows here, and so does a saving that should be
// re-pinned.
func TestMachineNewBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	app := workload.SocialNetworkApps()[0]
	cfg := UManycoreConfig()
	New(sim.NewEngine(1), cfg, app) // warm the workload caches
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		New(sim.NewEngine(1), cfg, app)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / n
	if delta := got - uManycoreNewBytes; delta > 0.01*uManycoreNewBytes || -delta > 0.01*uManycoreNewBytes {
		t.Fatalf("uManycore machine.New allocates %.0f B, pinned %d B (tolerance 1%%)", got, uManycoreNewBytes)
	}
}
