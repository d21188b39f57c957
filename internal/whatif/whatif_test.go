package whatif

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

func homeT(t *testing.T) *workload.App {
	t.Helper()
	for _, a := range workload.SocialNetworkApps() {
		if a.Name == "HomeT" {
			return a
		}
	}
	t.Fatal("no HomeT")
	return nil
}

func shortRC() machine.RunConfig {
	return machine.RunConfig{
		Duration: 100 * sim.Millisecond,
		Warmup:   20 * sim.Millisecond,
		Drain:    sim.Second,
	}
}

func smallOptions() Options {
	return Options{
		Stages:  []obs.Stage{obs.StageSched, obs.StageNet},
		Factors: []float64{0.5, 0},
	}
}

// TestGridWorkerInvariance is the tentpole determinism contract at the
// sweep layer: the full report is byte-for-byte the same grid whether
// cells run on one worker or many.
func TestGridWorkerInvariance(t *testing.T) {
	tg := Target{Machine: machine.UManycoreConfig(), App: homeT(t), RPS: 3000, RC: shortRC(), Seed: 7}
	o := smallOptions()
	o.Parallel = 1
	seq, err := Run(tg, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 4
	par, err := Run(tg, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("grid differs across worker counts:\n1: %+v\n4: %+v", seq, par)
	}
}

// TestBaselineCellMatchesPlainRun proves the zero-speedup cell is a perfect
// no-op: its latency summary equals an untraced machine.Run of the same
// config/seed, so the what-if layer (and its tracing) perturbs nothing.
func TestBaselineCellMatchesPlainRun(t *testing.T) {
	tg := Target{Machine: machine.UManycoreConfig(), App: homeT(t), RPS: 3000, RC: shortRC(), Seed: 7}
	rep, err := Run(tg, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	rc := shortRC()
	rc.App = tg.App
	rc.RPS = tg.RPS
	rc.Seed = tg.Seed
	plain := machine.Run(tg.Machine, rc)
	if rep.Baseline.Latency != plain.Latency {
		t.Fatalf("baseline cell %+v != plain run %+v", rep.Baseline.Latency, plain.Latency)
	}
	if rep.Baseline.P999US != plain.Sample.Quantile(0.999) {
		t.Fatalf("baseline p99.9 %v != plain %v", rep.Baseline.P999US, plain.Sample.Quantile(0.999))
	}
	if rep.Baseline.Blame.Residual() != 0 {
		t.Fatalf("baseline blame residual = %v ps", rep.Baseline.Blame.Residual())
	}
}

// TestSpeedupMovesLatency checks the grid actually simulates the speedups:
// eliminating the scheduler tax must beat the baseline mean, and each
// stage's factor-0 row must not be slower than its factor-0.5 row on mean.
func TestSpeedupMovesLatency(t *testing.T) {
	tg := Target{Machine: machine.UManycoreConfig(), App: homeT(t), RPS: 3000, RC: shortRC(), Seed: 7}
	rep, err := Run(tg, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[obs.Stage]map[float64]Row)
	for _, row := range rep.Rows {
		if rows[row.Stage] == nil {
			rows[row.Stage] = map[float64]Row{}
		}
		rows[row.Stage][row.Factor] = row
	}
	if d := rows[obs.StageSched][0].DMeanUS; d >= 0 {
		t.Fatalf("eliminating sched cost did not reduce mean latency (d=%+v us)", d)
	}
	for st, byF := range rows {
		if byF[0].Cell.Latency.Mean > byF[0.5].Cell.Latency.Mean {
			t.Fatalf("stage %v: factor 0 mean %v slower than factor 0.5 mean %v",
				st, byF[0].Cell.Latency.Mean, byF[0.5].Cell.Latency.Mean)
		}
	}
}

// TestShardWorkersByteIdentity is the PDES half of the determinism
// contract: the coupled-fleet grid's cells, in their JSON cell-cache
// payload form, are byte-identical for ShardWorkers 1, 4 and the -1
// single-engine reference.
func TestShardWorkersByteIdentity(t *testing.T) {
	app := homeT(t)
	encodeAll := func(shardWorkers int) [][]byte {
		fc := fleet.DefaultConfig(machine.UManycoreConfig())
		fc.Servers = 3
		fc.ShardWorkers = shardWorkers
		rep, err := Run(
			Target{Fleet: &fc, App: app, RPS: 9000, RC: shortRC(), Seed: 11},
			Options{Stages: []obs.Stage{obs.StageNet}, Factors: []float64{0.5}},
		)
		if err != nil {
			t.Fatal(err)
		}
		cells := append([]Cell{rep.Baseline}, rep.Rows[0].Cell)
		out := make([][]byte, len(cells))
		for i, c := range cells {
			if out[i], err = json.Marshal(c); err != nil {
				t.Fatal(err)
			}
			if c.Blame.ByServerStage == nil {
				t.Fatal("coupled-fleet cell lost its per-server blame split")
			}
		}
		return out
	}
	ref := encodeAll(-1)
	for _, workers := range []int{1, 4} {
		got := encodeAll(workers)
		for i := range ref {
			if !bytes.Equal(ref[i], got[i]) {
				t.Fatalf("cell %d differs: ShardWorkers=-1 vs %d:\n%s\nvs\n%s",
					i, workers, ref[i], got[i])
			}
		}
	}
}

// TestRunValidation covers the engine's input contract.
func TestRunValidation(t *testing.T) {
	base := Target{Machine: machine.UManycoreConfig(), App: homeT(t), RPS: 3000, RC: shortRC(), Seed: 7}

	tg := base
	tg.App = nil
	if _, err := Run(tg, Options{}); err == nil {
		t.Fatal("accepted a target without an app")
	}

	tg = base
	tg.RC.Obs = obs.DefaultOptions()
	if _, err := Run(tg, Options{}); err == nil {
		t.Fatal("accepted a RunConfig with obs enabled")
	}

	tg = base
	tg.Machine.WhatIf.Sched = 0.5
	if _, err := Run(tg, Options{}); err == nil {
		t.Fatal("accepted a machine config with preset speedups")
	}

	if _, err := Run(base, Options{Factors: []float64{1.5}}); err == nil {
		t.Fatal("accepted a cost factor > 1")
	}
	if _, err := Run(base, Options{Factors: []float64{-0.1}}); err == nil {
		t.Fatal("accepted a negative cost factor")
	}
	if _, err := Run(base, Options{Stages: []obs.Stage{obs.StageQueue}}); err == nil {
		t.Fatal("accepted a non-accelerable stage")
	}

	fc := fleet.DefaultConfig(machine.UManycoreConfig())
	fc.WhatIf.Net = 0.5
	tg = base
	tg.Fleet = &fc
	if _, err := Run(tg, Options{}); err == nil {
		t.Fatal("accepted a fleet config with preset speedups")
	}
}
