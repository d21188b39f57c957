package experiments

import (
	"reflect"
	"testing"

	"umanycore/internal/sim"
)

func fleetGraphTestOptions() Options {
	o := DefaultOptions()
	o.Duration = 30 * sim.Millisecond
	o.Warmup = 6 * sim.Millisecond
	o.Drain = 200 * sim.Millisecond
	o.Loads = []float64{4000}
	return o
}

// TestFleetGraphRows pins the study's structure and its headline contrast:
// a full placement × shape grid where colocation ships nothing across the
// fabric and spread placement pushes most call edges through it.
func TestFleetGraphRows(t *testing.T) {
	rows := FleetGraph(fleetGraphTestOptions())
	if len(rows) != len(fleetGraphPlacements)*len(fleetGraphShapes) {
		t.Fatalf("rows = %d", len(rows))
	}
	remote := map[string]uint64{}
	for _, r := range rows {
		if r.P99Micros <= 0 || r.MeanMicros <= 0 || r.Completed == 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		if r.Services < 3 || r.Depth < 3 {
			t.Fatalf("shape too small for a service-graph study: %+v", r)
		}
		if r.Placement == "colocated" && r.RemoteServed != 0 {
			t.Fatalf("colocated placement shipped %d remote RPCs: %+v", r.RemoteServed, r)
		}
		remote[r.Placement] += r.RemoteServed
	}
	if remote["spread"] == 0 || remote["random"] == 0 {
		t.Fatalf("non-colocated placements shipped no cross-server RPCs: %v", remote)
	}
}

// TestFleetGraphWorkerInvariance is the figure-level determinism gate: the
// grid is bit-identical for any sweep worker count. Repeat-run identity of
// a graph fleet is pinned in internal/fleet
// (TestGraphReplayShardWorkerInvariance).
func TestFleetGraphWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	o := fleetGraphTestOptions()
	o.Parallel = 1
	ref := FleetGraph(o)
	for _, parallel := range []int{4, 0} {
		o.Parallel = parallel
		if got := FleetGraph(o); !reflect.DeepEqual(ref, got) {
			t.Fatalf("FleetGraph rows differ between 1 and %d sweep workers", parallel)
		}
	}
}
