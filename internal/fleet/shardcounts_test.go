package fleet

import (
	"fmt"
	"testing"

	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/telemetry"
)

// TestShardCountsGolden pins the fabric's per-shard accounting
// (Stats.ShardWindows and ShardEvents) for small fleets that exercise every
// way an event comes to belong to a shard: server setup with telemetry
// samplers, barrier delivery, cross-server RPCs, burn samplers, hedge
// cancellations, autoscaler activations scheduled from the barrier hook,
// graph replay and what-if speedups. The numbers were recorded when every
// server ran on an engine of its own, where a shard's counts were its
// engine's; one engine whose events carry their shard's tag must reproduce
// them exactly. The what-if case's were recorded on one engine, when its
// per-server override left the fleet config.
func TestShardCountsGolden(t *testing.T) {
	short := machine.RunConfig{Duration: 20 * sim.Millisecond, Warmup: 4 * sim.Millisecond, Drain: 200 * sim.Millisecond}
	cases := []struct {
		name string
		run  func() *Result
		want string
	}{
		{"p2c skew telemetry", func() *Result {
			fc := DefaultConfig(machine.UManycoreConfig())
			fc.Servers = 3
			fc.LB = "p2c"
			fc.Slowdown = []float64{1, 2, 1}
			rc := short
			rc.Obs = &obs.Options{Metrics: true}
			rc.Telemetry = &telemetry.Options{}
			return Run(fc, homeT(t), 9000, rc, 5)
		}, "windows [414 7078 7066 7209] events [414 11961 11999 12191]"},
		{"control retry hedge shed scale", func() *Result {
			fc := overloadFleet(4)
			fc.Control = fullControl()
			fc.Control.HedgeAfter = sim.Millisecond
			fc.Control.ScaleMin = 2
			fc.Control.ScaleP99Micros = 1000
			fc.Control.ScaleLag = 2 * sim.Millisecond
			fc.Control.ScaleWindow = 5 * sim.Millisecond
			rc := machine.RunConfig{Duration: 30 * sim.Millisecond, Warmup: 5 * sim.Millisecond, Drain: 500 * sim.Millisecond}
			r := Run(fc, synthApp(t), 80000, rc, 13)
			if c := r.Control; c == nil || c.Retries == 0 || c.Hedges == 0 || c.Shed == 0 || c.ScaleUps == 0 {
				t.Fatalf("control case exercised too little: %+v", c)
			}
			return r
		}, "windows [12083 6391 6394 4074 3174] events [14876 7826 7790 5082 3938]"},
		{"graph replay", func() *Result {
			app, spec, rep := graphReplayInputs(t)
			fc := DefaultConfig(machine.UManycoreConfig())
			fc.Servers = 4
			fc.LB = "rr"
			fc.Graph = spec
			rc := machine.RunConfig{Duration: 30 * sim.Millisecond, Warmup: 5 * sim.Millisecond, Drain: 500 * sim.Millisecond, Replay: rep}
			return Run(fc, app, 0, rc, 23)
		}, "windows [398 12824 11292 6317 5009] events [400 32484 23608 11341 8336]"},
		{"what-if", func() *Result {
			fc := DefaultConfig(machine.UManycoreConfig())
			fc.Servers = 3
			fc.LB = "least"
			fc.Machine.WhatIf = machine.StageSpeedups{Net: 0.5, Sched: 0.25}
			return Run(fc, homeT(t), 9000, short, 11)
		}, "windows [209 7461 7134 7126] events [210 13273 12613 12529]"},
	}
	for _, tc := range cases {
		st := tc.run().Fabric
		got := fmt.Sprintf("windows %v events %v", st.ShardWindows, st.ShardEvents)
		if got != tc.want {
			t.Errorf("%s: per-shard counts\n got %s\nwant %s", tc.name, got, tc.want)
		}
		var sum uint64
		for _, e := range st.ShardEvents {
			sum += e
		}
		if sum != st.WindowEvents {
			t.Errorf("%s: per-shard events sum to %d, window events %d", tc.name, sum, st.WindowEvents)
		}
	}
}
