// Package experiments regenerates every table and figure of the paper's
// evaluation: one function per figure, returning the same rows/series the
// paper reports. cmd/umbench prints them as text tables; bench_test.go wraps
// each in a testing.B benchmark.
//
// Figures 14–18 and §6.8 follow the paper's methodology: per-server loads of
// 5/10/15K RPS with Poisson arrivals, a 10-server fleet (modeled via the
// symmetric-server coupling of internal/fleet — cross-server RPC fraction
// and 1μs inter-server RTT applied per machine), end-to-end latency from
// client send to client receive, and P99 as the tail metric.
package experiments

import (
	"sort"

	"umanycore/internal/machine"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/sweep"
	"umanycore/internal/workload"
)

// Options tunes experiment fidelity vs runtime. The zero value plus
// DefaultOptions() reproduces the EXPERIMENTS.md numbers; tests use reduced
// settings.
type Options struct {
	Seed     int64
	Duration sim.Time  // arrival window per run
	Warmup   sim.Time  // measurement warmup
	Drain    sim.Time  // post-window drain bound
	Loads    []float64 // per-server RPS points
	Apps     []*workload.App
	// Parallel bounds the sweep worker pool fanning out independent
	// simulations; <= 0 means all cores. Results are bit-identical for any
	// value (see internal/sweep's determinism contract).
	Parallel int
	// FleetSizes are the fleet sizes the FleetScale study sweeps.
	FleetSizes []int
}

// DefaultOptions returns full-fidelity settings.
func DefaultOptions() Options {
	return Options{
		Seed:       42,
		Duration:   400 * sim.Millisecond,
		Warmup:     80 * sim.Millisecond,
		Drain:      1600 * sim.Millisecond,
		Loads:      []float64{5000, 10000, 15000},
		Apps:       workload.SocialNetworkApps(),
		FleetSizes: []int{4, 16, 64, 256},
	}
}

// Quick returns reduced-fidelity settings for tests.
func (o Options) Quick() Options {
	o.Duration = 150 * sim.Millisecond
	o.Warmup = 30 * sim.Millisecond
	o.Drain = 600 * sim.Millisecond
	// The 256-server point is a multi-minute cell; the scaling trend is
	// already visible at 64.
	o.FleetSizes = []int{4, 16, 64}
	return o
}

func (o Options) normalized() Options {
	d := DefaultOptions()
	if o.Duration == 0 {
		o.Duration = d.Duration
	}
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if o.Drain == 0 {
		o.Drain = d.Drain
	}
	if len(o.Loads) == 0 {
		o.Loads = d.Loads
	}
	if len(o.Apps) == 0 {
		o.Apps = d.Apps
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if len(o.FleetSizes) == 0 {
		o.FleetSizes = d.FleetSizes
	}
	return o
}

// runCfg builds the common per-run configuration.
func (o Options) runCfg(app *workload.App, rps float64) machine.RunConfig {
	return machine.RunConfig{
		App:      app,
		RPS:      rps,
		Duration: o.Duration,
		Warmup:   o.Warmup,
		Drain:    o.Drain,
		Seed:     o.Seed,
	}
}

// jobSeed derives the seed for one sweep cell from the base seed and the
// cell's identity key — a pure function of the job, never of execution
// order, so parallel and sequential sweeps agree bit for bit.
func (o Options) jobSeed(key string) int64 { return sweep.Seed(o.Seed, key) }

// runCfgKey is runCfg with the cell-keyed seed.
func (o Options) runCfgKey(app *workload.App, rps float64, key string) machine.RunConfig {
	rc := o.runCfg(app, rps)
	rc.Seed = o.jobSeed(key)
	return rc
}

// sortedRoots returns the per-root summary keys in ascending ID order, so
// row assembly from a PerRoot map is deterministic.
func sortedRoots(per map[int]stats.Summary) []int {
	roots := make([]int, 0, len(per))
	for root := range per {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	return roots
}

// withFleetCoupling applies the 10-server cluster's cross-server RPC
// parameters to a machine config (§5 methodology).
func withFleetCoupling(cfg machine.Config) machine.Config {
	cfg.RemoteCallFrac = 0.5
	cfg.RemoteRTT = 1 * sim.Microsecond
	return cfg
}

// archSet returns the three §5 processors with fleet coupling.
func archSet() []machine.Config {
	return []machine.Config{
		withFleetCoupling(machine.ServerClassConfig(40)),
		withFleetCoupling(machine.ScaleOutConfig()),
		withFleetCoupling(machine.UManycoreConfig()),
	}
}
