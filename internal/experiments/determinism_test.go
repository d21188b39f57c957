package experiments

import (
	"reflect"
	"testing"

	"umanycore/internal/sim"
)

// determinismOptions keeps the grid small enough to run twice under -race
// while still exercising multi-cell fan-out (3 archs × 2 loads = 6 cells).
func determinismOptions(parallel int) Options {
	o := DefaultOptions()
	o.Duration = 40 * sim.Millisecond
	o.Warmup = 10 * sim.Millisecond
	o.Drain = 200 * sim.Millisecond
	o.Loads = []float64{5000, 15000}
	o.Parallel = parallel
	return o
}

// TestEndToEndParallelDeterminism is the sweep runner's core regression: the
// full end-to-end grid must be bit-identical regardless of worker count, and
// the same seed must reproduce the same grid across invocations (engine
// pooling and node recycling must leave no residue between runs).
func TestEndToEndParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	sequential := EndToEnd(determinismOptions(1))
	for _, workers := range []int{4, 0} {
		parallel := EndToEnd(determinismOptions(workers))
		if !reflect.DeepEqual(sequential, parallel) {
			t.Fatalf("EndToEnd grid differs between 1 and %d workers", workers)
		}
	}
	again := EndToEnd(determinismOptions(1))
	if !reflect.DeepEqual(sequential, again) {
		t.Fatal("EndToEnd grid differs between two same-seed runs")
	}
}

// TestFig3ParallelDeterminism covers a paired-seed grid (steal/no-steal
// cells sharing one seed per queue count) across worker counts.
func TestFig3ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	o := determinismOptions(1)
	o.Duration = 10 * sim.Millisecond
	o.Warmup = 2 * sim.Millisecond
	o.Drain = 50 * sim.Millisecond
	sequential := Fig3(o)
	o.Parallel = 0
	if parallel := Fig3(o); !reflect.DeepEqual(sequential, parallel) {
		t.Fatal("Fig3 rows differ between sequential and parallel sweeps")
	}
}
