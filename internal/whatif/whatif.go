// Package whatif is the causal-profiling engine: it answers "what would
// p99 do if stage X got faster" by actually re-running the simulation with
// virtual stage speedups (machine.StageSpeedups) over a paired-seed grid
// of (stage, cost factor) cells, and compares each variant against the
// baseline run of the identical seed.
//
// Tail blame (internal/obs) is descriptive: it reports where critical-path
// picoseconds went. With queueing feedback and critical-path migration,
// that ranking routinely disagrees with the *causal* ranking — what
// shrinking a stage would actually buy. A stage can hold a small blame
// share yet dominate the payoff ranking because its cost occupies cores
// and feeds queues (the software RPC tax), or hold a large share yet pay
// off only linearly because nothing queues behind it (storage). The grid
// quantifies both next to each other, plus a differential blame report
// (obs.DiffBlame) showing how attribution migrates as each tax shrinks.
//
// Every cell is one deterministic simulation, so the grid runs through
// internal/sweep with results bit-identical for any worker count, and each
// cell's reduced result (latency quantiles + blame summary — spans are
// discarded after analysis) is cacheable through the sweep cell cache.
package whatif

import (
	"fmt"

	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/stats"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
	"umanycore/internal/workload"
)

// Target selects the simulated system under study. The same seed drives
// every cell (paired-seed design): baseline and variants see identical
// arrival, service and routing draws, so deltas measure the speedup, not
// sampling noise.
type Target struct {
	// Machine is the single-server configuration to profile. Its WhatIf
	// field must be zero — the engine owns that knob. Ignored when Fleet
	// is set.
	Machine machine.Config
	// Fleet, when non-nil, profiles the coupled fleet instead (its
	// embedded Machine is the base config). Its Machine.WhatIf must be
	// zero.
	Fleet *fleet.Config
	// App and RPS are the workload and total offered load.
	App *workload.App
	RPS float64
	// RC supplies the run window (Duration/Warmup/Drain/Arrivals). Its
	// App/RPS/Seed are overwritten; Obs and Telemetry must be nil — the
	// engine enables tracing itself and discards spans after analysis.
	RC machine.RunConfig
	// Seed drives all randomness in every cell.
	Seed int64
}

// Options tunes the grid.
type Options struct {
	// Stages to virtually accelerate; default machine.SpeedupStages()
	// (sched, ctxswitch, mem-stall, rpc-proc, storage, net).
	Stages []obs.Stage
	// Factors are the cost multipliers to apply per stage; default
	// {0.9, 0.75, 0.5, 0} (0 = stage eliminated). Each must be in [0, 1].
	Factors []float64
	// TopFrac is the analyzed tail fraction for blame; default 0.01.
	TopFrac float64
	// Parallel caps the sweep worker count (0 = one per CPU). A worker
	// count, never an input: results are bit-identical for any value.
	Parallel int
}

// DefaultFactors is the grid's default cost-factor ladder.
func DefaultFactors() []float64 { return []float64{0.9, 0.75, 0.5, 0} }

func (o Options) normalized() Options {
	if len(o.Stages) == 0 {
		o.Stages = machine.SpeedupStages()
	}
	if len(o.Factors) == 0 {
		o.Factors = DefaultFactors()
	}
	if o.TopFrac <= 0 || o.TopFrac > 1 {
		o.TopFrac = 0.01
	}
	return o
}

// Cell is one grid point's reduced result: the latency distribution and
// the blame summary, everything the report needs and nothing the cache
// can't hold (spans are analyzed and discarded inside the cell).
type Cell struct {
	// Latency is the end-to-end latency summary in microseconds.
	Latency stats.Summary
	// P999US is the 99.9th-percentile latency in microseconds (the
	// summary stops at p99; tail-at-scale arguments need one more nine).
	P999US float64
	// Blame is the critical-path attribution of the analyzed tail.
	Blame obs.BlameSummary
}

// Row is one (stage, factor) variant compared against the baseline.
type Row struct {
	// Stage and Factor identify the cell: Stage's cost ran at Factor
	// times its configured value.
	Stage  obs.Stage
	Factor float64
	// Cell is the variant's own result.
	Cell Cell
	// DMeanUS/DP50US/DP99US/DP999US are variant minus baseline in
	// microseconds (negative = faster).
	DMeanUS, DP50US, DP99US, DP999US float64
	// BlameShare is the stage's share of the BASELINE analyzed tail's
	// critical path — what descriptive profiling predicts matters.
	BlameShare float64
	// PayoffP99 is the fractional p99 reduction this speedup actually
	// bought: (base p99 - variant p99) / base p99.
	PayoffP99 float64
	// Diff is the differential blame report baseline → variant: how
	// critical-path attribution migrated between stages (and servers).
	Diff *obs.ReportDiff
}

// Report is the full what-if sensitivity study.
type Report struct {
	// Machine/App/RPS/Servers/Seed identify the target (Servers 0 = a
	// plain single machine outside any fleet).
	Machine string
	App     string
	RPS     float64
	Servers int
	Seed    int64
	// TopFrac is the analyzed tail fraction.
	TopFrac float64
	// Factors is the factor ladder shared by all stages.
	Factors []float64
	// Baseline is the unmodified run every row is compared against.
	Baseline Cell
	// Rows holds the grid stage-major (len(Stages) × len(Factors)), each
	// stage's factors in ladder order.
	Rows []Row
}

// Run executes the paired-seed grid and assembles the report.
func Run(t Target, o Options) (*Report, error) {
	o = o.normalized()
	if t.App == nil {
		return nil, fmt.Errorf("whatif: target has no app")
	}
	if t.RC.Obs != nil || t.RC.Telemetry != nil {
		return nil, fmt.Errorf("whatif: Target.RC must not enable obs/telemetry (the engine traces internally)")
	}
	if t.Fleet != nil {
		if !t.Fleet.Machine.WhatIf.IsZero() {
			return nil, fmt.Errorf("whatif: Target.Fleet already sets WhatIf speedups")
		}
	} else if !t.Machine.WhatIf.IsZero() {
		return nil, fmt.Errorf("whatif: Target.Machine already sets WhatIf speedups")
	}
	for _, f := range o.Factors {
		if !(f >= 0 && f <= 1) {
			return nil, fmt.Errorf("whatif: cost factor %v outside [0, 1]", f)
		}
	}
	grid := make([]gridCell, 0, 1+len(o.Stages)*len(o.Factors))
	grid = append(grid, t.cell(machine.StageSpeedups{}, o.TopFrac))
	for _, st := range o.Stages {
		for _, f := range o.Factors {
			var sp machine.StageSpeedups
			if !sp.SetStage(st, 1-f) {
				return nil, fmt.Errorf("whatif: stage %v cannot be virtually accelerated (only %v)",
					st, machine.SpeedupStages())
			}
			grid = append(grid, t.cell(sp, o.TopFrac))
		}
	}

	cells := sweep.MapCached(o.Parallel, grid)

	rep := &Report{
		RPS:      t.RPS,
		Seed:     t.Seed,
		TopFrac:  o.TopFrac,
		Factors:  o.Factors,
		App:      t.App.Name,
		Baseline: cells[0],
	}
	if t.Fleet != nil {
		rep.Machine = t.Fleet.Machine.Name
		rep.Servers = t.Fleet.Servers
	} else {
		rep.Machine = t.Machine.Name
	}
	base := rep.Baseline
	i := 1
	for _, st := range o.Stages {
		for _, f := range o.Factors {
			cell := cells[i]
			i++
			row := Row{
				Stage:   st,
				Factor:  f,
				Cell:    cell,
				DMeanUS: cell.Latency.Mean - base.Latency.Mean,
				DP50US:  cell.Latency.Median - base.Latency.Median,
				DP99US:  cell.Latency.P99 - base.Latency.P99,
				DP999US: cell.P999US - base.P999US,
				Diff:    obs.DiffBlame(base.Blame, cell.Blame),
			}
			if base.Blame.TotalLatency > 0 {
				row.BlameShare = float64(base.Blame.ByStage[st]) / float64(base.Blame.TotalLatency)
			}
			if base.Latency.P99 > 0 {
				row.PayoffP99 = (base.Latency.P99 - cell.Latency.P99) / base.Latency.P99
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// gridCell is one grid point ("whatif/cell"): the target's machine or
// fleet config with this point's speedups applied, the RunConfig with the
// target's app, load and seed filled in, and the analyzed tail fraction.
// The baseline and variants differ only through the WhatIf field inside
// the config, so the key needs no separate stage/factor tag. The RunConfig
// is keyed with Obs clear: every cell traces identically (Run turns tracing
// on) and the cached Cell is already the post-analysis reduction.
type gridCell struct {
	cfg     machine.Config
	fc      *fleet.Config // non-nil: profile the coupled fleet; cfg is unused
	rc      machine.RunConfig
	topFrac float64
}

// cell builds the grid point that runs the target with speedups sp.
func (t Target) cell(sp machine.StageSpeedups, topFrac float64) gridCell {
	c := gridCell{rc: t.RC, topFrac: topFrac}
	c.rc.App = t.App
	c.rc.RPS = t.RPS
	c.rc.Seed = t.Seed
	if t.Fleet != nil {
		fc := *t.Fleet
		fc.Machine.WhatIf = sp
		c.fc = &fc
	} else {
		c.cfg = t.Machine
		c.cfg.WhatIf = sp
	}
	return c
}

// Key is the cell's canonical cache key.
func (c gridCell) Key() []byte {
	key := sweepcache.NewKey("whatif/cell")
	if c.fc != nil {
		key.Any("fc", *c.fc)
	} else {
		key.Any("cfg", c.cfg)
	}
	return key.Any("app", c.rc.App).
		Float("total_rps", c.rc.RPS).
		Any("rc", c.rc).
		Int("seed", c.rc.Seed).
		Float("top_frac", c.topFrac).
		Preimage()
}

// Run executes the grid point with tracing on and reduces it to a Cell.
func (c gridCell) Run() Cell {
	rc := c.rc
	rc.Obs = &obs.Options{Trace: true}
	if c.fc != nil {
		res := fleet.Run(*c.fc, rc.App, rc.RPS, rc, rc.Seed)
		// p99.9 needs the raw sample: merge the per-server samples.
		samples := make([]*stats.Sample, len(res.PerServer))
		for i, ps := range res.PerServer {
			samples[i] = ps.Sample
		}
		merged := stats.Merge(samples)
		return Cell{
			Latency: res.Latency,
			P999US:  merged.Quantile(0.999),
			Blame:   obs.Analyze(res.Obs.Spans, c.topFrac).Summary(),
		}
	}
	res := machine.Run(c.cfg, rc)
	return Cell{
		Latency: res.Latency,
		P999US:  res.Sample.Quantile(0.999),
		Blame:   obs.Analyze(res.Obs.Spans, c.topFrac).Summary(),
	}
}
