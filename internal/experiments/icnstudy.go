package experiments

import (
	"fmt"

	"umanycore/internal/machine"
	"umanycore/internal/sweep"
)

// Fig7Row is one load level of Figure 7: tail latency with ICN contention,
// normalized to the same system without contention, for the 2D mesh and
// fat-tree ICNs on the 1024-core ScaleOut manycore.
type Fig7Row struct {
	RPS         int
	MeshNorm    float64
	FatTreeNorm float64
}

// Fig7 reproduces Figure 7. Per the paper: cores grouped in 32-core
// clusters, clusters interconnected with a 2D mesh or fat-tree, 5-cycle
// contention-free hop latency, requests issued to cores randomly; each bar
// is normalized to the tail latency of the same environment without ICN
// contention.
func Fig7(o Options) []Fig7Row {
	o = o.normalized()
	app := fig7App()
	loads := []int{1000, 5000, 10000, 50000}

	type variant struct {
		topo       machine.TopoKind
		contention bool
	}
	variants := []variant{
		{machine.MeshTopo, false}, {machine.MeshTopo, true},
		{machine.FatTreeTopo, false}, {machine.FatTreeTopo, true},
	}
	mkCfg := func(v variant) machine.Config {
		cfg := machine.ScaleOutConfig()
		cfg.Topo = v.topo
		if v.topo == machine.MeshTopo {
			// 32 cluster endpoints as an 8×4 mesh.
			cfg.MeshW, cfg.MeshH = 8, 4
		}
		cfg.ICNContention = v.contention
		return cfg
	}
	var cells []p99Cell
	for _, rps := range loads {
		for _, v := range variants {
			rc := o.runCfgKey(app, float64(rps), fmt.Sprintf("fig7/%v/%d", v.topo, rps))
			cells = append(cells, p99Cell{runCell{mkCfg(v), rc}})
		}
	}
	tails := sweep.MapCached(o.Parallel, cells)

	rows := make([]Fig7Row, 0, len(loads))
	for i, rps := range loads {
		t := tails[len(variants)*i:]
		meshBase, mesh, ftBase, ft := t[0], t[1], t[2], t[3]
		row := Fig7Row{RPS: rps}
		if meshBase > 0 {
			row.MeshNorm = mesh / meshBase
		}
		if ftBase > 0 {
			row.FatTreeNorm = ft / ftBase
		}
		rows = append(rows, row)
	}
	return rows
}
