package experiments

import (
	"reflect"
	"testing"

	"umanycore/internal/sim"
)

func fleetScaleTestOptions() Options {
	o := DefaultOptions().Quick()
	o.Duration = 40 * sim.Millisecond
	o.Warmup = 8 * sim.Millisecond
	o.Drain = 400 * sim.Millisecond
	o.Loads = []float64{9000}
	o.FleetSizes = []int{4, 8}
	return o
}

// TestFleetScaleSeparatesPolicies: even at small sizes, queue-aware routing
// must beat oblivious routing on the constant-straggler-fraction fleet, and
// every cell must show real cross-server traffic and event counts.
func TestFleetScaleSeparatesPolicies(t *testing.T) {
	rows := FleetScale(fleetScaleTestOptions())
	byKey := make(map[string]map[int]FleetScaleRow)
	for _, r := range rows {
		if byKey[r.Policy] == nil {
			byKey[r.Policy] = make(map[int]FleetScaleRow)
		}
		byKey[r.Policy][r.Servers] = r
		if r.P99Micros <= 0 || r.MeanMicros <= 0 || r.EventsProcessed == 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
		if r.RemoteServed == 0 {
			t.Fatalf("no cross-server coupling in row %+v", r)
		}
	}
	if len(byKey) != 4 {
		t.Fatalf("policies = %d", len(byKey))
	}
	for size := range byKey["rand"] {
		for _, aware := range []string{"p2c", "least"} {
			a, o := byKey[aware][size], byKey["rand"][size]
			if a.P99Micros > o.P99Micros {
				t.Errorf("servers=%d: %s P99 %.1fus > uniform-random %.1fus",
					size, aware, a.P99Micros, o.P99Micros)
			}
		}
	}
}

// TestFleetScaleDeterministic: rows are identical for any sweep worker
// count. The shared-engine reference is byte-compared with per-server
// engines in internal/fleet (TestShardedMatchesSingleEngineReference).
func TestFleetScaleDeterministic(t *testing.T) {
	o := fleetScaleTestOptions()
	o.FleetSizes = []int{6}
	o.Parallel = 1
	seq := FleetScale(o)
	o.Parallel = 4
	par := FleetScale(o)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("FleetScale rows depend on the sweep worker count")
	}
}

// TestFleetScale256 drives one 256-server FleetScale cell end to end — the
// scale target the sharded coupled fleet exists for. Short mode skips it;
// the arrival window is trimmed so the cell stays test-sized.
func TestFleetScale256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-server coupled fleet cell")
	}
	if raceEnabled {
		// ~20s becomes minutes under -race and busts the package time
		// budget; the sharded path's race coverage lives in
		// TestFleetScaleDeterministic and internal/{fleet,pdes}.
		t.Skip("256-server cell is too slow under the race detector")
	}
	o := fleetScaleTestOptions()
	o.Duration = 10 * sim.Millisecond
	o.Warmup = 2 * sim.Millisecond
	o.Drain = 200 * sim.Millisecond
	o.Loads = []float64{6000}
	o.FleetSizes = []int{256}
	rows := FleetScale(o)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want one per policy", len(rows))
	}
	for _, r := range rows {
		if r.Servers != 256 || r.P99Micros <= 0 || r.RemoteServed == 0 || r.EventsProcessed == 0 {
			t.Fatalf("degenerate 256-server row: %+v", r)
		}
	}
}
