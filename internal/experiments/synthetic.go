package experiments

import (
	"fmt"

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
	archs := archSet()
	var rows []Fig20Row
	var cells []p99Cell
	for _, dist := range []string{"exponential", "lognormal", "bimodal"} {
		app, err := workload.SyntheticApp(dist, 10, 3)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		for _, rps := range o.Loads {
			rows = append(rows, Fig20Row{Dist: dist, RPS: rps})
			// The three architectures at one (distribution, load) point
			// share a seed, keeping the bar-group comparison paired.
			rc := o.runCfgKey(app, rps, fmt.Sprintf("fig20/%s/%g", dist, rps))
			for _, cfg := range archs {
				cells = append(cells, p99Cell{runCell{cfg, rc}})
			}
		}
	}
	tails := sweep.MapCached(o.Parallel, cells)
	for i, c := range cells {
		row := &rows[i/len(archs)]
		switch c.cfg.Name {
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
