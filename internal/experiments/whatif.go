package experiments

import (
	"fmt"

	"umanycore/internal/machine"
	"umanycore/internal/whatif"
)

// WhatIfRow is one (arch, stage, factor) point of the causal-profiling
// study: what the tail actually does when a pipeline stage's cost is
// virtually scaled, next to what descriptive blame predicted.
type WhatIfRow struct {
	Arch string `json:"arch"`
	// Stage ran at Factor times its configured cost in this variant.
	Stage  string  `json:"stage"`
	Factor float64 `json:"factor"`
	// BaseP99Micros / P99Micros are the paired-seed baseline and variant
	// tails.
	BaseP99Micros float64 `json:"base_p99_us"`
	P99Micros     float64 `json:"p99_us"`
	// DMean/DP50/DP99/DP999 are variant minus baseline in microseconds.
	DMeanMicros float64 `json:"d_mean_us"`
	DP50Micros  float64 `json:"d_p50_us"`
	DP99Micros  float64 `json:"d_p99_us"`
	DP999Micros float64 `json:"d_p999_us"`
	// BlameShare is the stage's share of the baseline analyzed tail's
	// critical path; PayoffP99 the fractional p99 reduction the speedup
	// actually bought. Their rankings disagreeing is the figure's point.
	BlameShare float64 `json:"blame_share"`
	PayoffP99  float64 `json:"payoff_p99"`
	// TopMover names the stage whose critical-path share migrated most
	// (signed, in share points) under this speedup.
	TopMover           string  `json:"top_mover"`
	TopMoverDeltaShare float64 `json:"top_mover_d_share"`
}

// WhatIf runs the causal-profiling grid (internal/whatif) on the coupled
// ScaleOut and uManycore machines at the study's top per-server load: every
// accelerable stage × the default factor ladder, paired seeds per arch.
// ScaleOut is the interesting subject — its software taxes sit in queueing
// feedback loops, so blame share and actual payoff rank differently —
// while uManycore shows what remains once the taxes are in hardware. Cells
// run through the sweep cache; rows are bit-identical for any Parallel
// value.
func WhatIf(o Options) []WhatIfRow {
	o = o.normalized()
	app := appNamed("HomeT")
	rps := o.Loads[len(o.Loads)-1]
	var rows []WhatIfRow
	for _, cfg := range []machine.Config{
		withFleetCoupling(machine.ScaleOutConfig()),
		withFleetCoupling(machine.UManycoreConfig()),
	} {
		rep, err := whatif.Run(whatif.Target{
			Machine: cfg,
			App:     app,
			RPS:     rps,
			RC: machine.RunConfig{
				Duration: o.Duration,
				Warmup:   o.Warmup,
				Drain:    o.Drain,
			},
			Seed: o.jobSeed(fmt.Sprintf("whatif/%s", cfg.Name)),
		}, whatif.Options{Parallel: o.Parallel})
		if err != nil {
			// The target and options are fixed above; an error here is a
			// programming mistake, not an input problem.
			panic(fmt.Sprintf("experiments: what-if grid: %v", err))
		}
		for _, r := range rep.Rows {
			row := WhatIfRow{
				Arch:          cfg.Name,
				Stage:         r.Stage.String(),
				Factor:        r.Factor,
				BaseP99Micros: rep.Baseline.Latency.P99,
				P99Micros:     r.Cell.Latency.P99,
				DMeanMicros:   r.DMeanUS,
				DP50Micros:    r.DP50US,
				DP99Micros:    r.DP99US,
				DP999Micros:   r.DP999US,
				BlameShare:    r.BlameShare,
				PayoffP99:     r.PayoffP99,
			}
			if movers := r.Diff.TopMovers(1); len(movers) > 0 {
				row.TopMover = movers[0].Stage.String()
				row.TopMoverDeltaShare = movers[0].DeltaShare
			}
			rows = append(rows, row)
		}
	}
	return rows
}
