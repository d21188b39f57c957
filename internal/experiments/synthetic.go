package experiments

import (
	"fmt"

	"umanycore/internal/machine"
	"umanycore/internal/sweep"
	"umanycore/internal/workload"
)

// Fig20Row is one (distribution, load) bar group of Figure 20: the
// synthetic-benchmark tails on the three architectures.
type Fig20Row struct {
	Dist string
	RPS  float64
	// Absolute tails in microseconds.
	ServerClassTail float64
	ScaleOutTail    float64
	UManycoreTail   float64
}

// Fig20 reproduces Figure 20: synthetic single-service benchmarks with
// exponential, lognormal, and bimodal service-time distributions at
// 5/10/15K RPS. Service times are μs-scale (mean 10μs with 3 blocking
// calls, within the paper's 2–6 range) — the regime where scheduling and
// RPC-stack overheads dominate and the paper's absolute tails (8.9–554μs on
// ServerClass) live.
func Fig20(o Options) []Fig20Row {
	o = o.normalized()
	type cell struct {
		dist string
		app  *workload.App
		rps  float64
		cfg  machine.Config
	}
	var jobs []cell
	for _, dist := range []string{"exponential", "lognormal", "bimodal"} {
		app, err := workload.SyntheticApp(dist, 10, 3)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		for _, rps := range o.Loads {
			for _, cfg := range archSet() {
				jobs = append(jobs, cell{dist: dist, app: app, rps: rps, cfg: cfg})
			}
		}
	}
	// The three architectures at one (distribution, load) point share a
	// seed, keeping the bar-group comparison paired.
	mkRC := func(j cell) machine.RunConfig {
		return o.runCfgKey(j.app, j.rps, fmt.Sprintf("fig20/%s/%g", j.dist, j.rps))
	}
	tails := sweep.MapCached(o.Parallel, jobs,
		func(_ int, j cell) []byte {
			return runPre("run/p99", j.cfg, mkRC(j))
		},
		func(_ int, j cell) float64 {
			return machine.Run(j.cfg, mkRC(j)).Latency.P99
		})
	var rows []Fig20Row
	for i, j := range jobs {
		if i%len(archSet()) == 0 {
			rows = append(rows, Fig20Row{Dist: j.dist, RPS: j.rps})
		}
		row := &rows[len(rows)-1]
		switch j.cfg.Name {
		case "ServerClass-40":
			row.ServerClassTail = tails[i]
		case "ScaleOut":
			row.ScaleOutTail = tails[i]
		case "uManycore":
			row.UManycoreTail = tails[i]
		}
	}
	return rows
}
