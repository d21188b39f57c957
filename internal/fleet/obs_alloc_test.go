package fleet

import (
	"testing"

	"umanycore/internal/machine"
	"umanycore/internal/sim"
)

// fleetObsOffBaselineAllocs is the allocs/op of the coupled-fleet run below
// with observability disabled. The simulation is deterministic, so the count
// is stable run to run; update the constant only when a deliberate change to
// the fleet or machine model or to the simulator's allocation behaviour
// moves it.
const fleetObsOffBaselineAllocs = 4049

// TestFleetObsOffZeroAllocDelta extends the machine-level zero-overhead pin
// (internal/machine.TestObsOffZeroAllocDelta) to a sharded coupled fleet: with
// RunConfig.Obs and Telemetry nil, the remote-trace plumbing (link minting,
// peer envelopes) and the fabric instrumentation must reduce to nil-guarded
// branches that allocate nothing.
func TestFleetObsOffZeroAllocDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	app := homeT(t)
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 2
	fc.ShardWorkers = 1
	fc.CrossServerFrac = 1
	rc := machine.RunConfig{Duration: 20 * sim.Millisecond, Warmup: 4 * sim.Millisecond, Drain: 200 * sim.Millisecond}
	r := Run(fc, app, 6000, rc, 42) // warm the engine pool and workload caches
	if r.Obs != nil || r.RemoteServed == 0 {
		t.Fatalf("obs-off run malformed: obs=%v remote=%d", r.Obs, r.RemoteServed)
	}

	got := testing.AllocsPerRun(3, func() {
		Run(fc, app, 6000, rc, 42)
	})
	// 0.5% headroom absorbs sync.Pool/GC jitter (an emptied pool re-grows
	// the engine heap); the disabled layer itself must contribute nothing.
	tolerance := 0.005 * fleetObsOffBaselineAllocs
	delta := got - fleetObsOffBaselineAllocs
	if delta < 0 {
		delta = -delta
	}
	if delta > tolerance {
		t.Fatalf("obs-off fleet run allocates %.0f/op, baseline %d/op (delta %.0f > tolerance %.0f)",
			got, int64(fleetObsOffBaselineAllocs), delta, tolerance)
	}
}
