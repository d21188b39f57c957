package experiments

import (
	"umanycore/internal/machine"
	"umanycore/internal/stats"
	"umanycore/internal/sweep"
)

// Fig15Row is one application's cumulative technique ladder at 15K RPS:
// tail-latency *reduction factors* relative to ScaleOut after applying each
// μManycore technique in the paper's order.
type Fig15Row struct {
	App string
	// Reduction after +Villages, +Leaf-spine ICN, +HW scheduling, +HW
	// context switch (the last configuration is μManycore).
	Villages  float64
	LeafSpine float64
	HWSched   float64
	HWCS      float64
}

// Fig15 reproduces Figure 15: the contribution of the four main μManycore
// techniques, applied cumulatively to ScaleOut at 15K RPS.
func Fig15(o Options) []Fig15Row {
	o = o.normalized()
	base := withFleetCoupling(machine.ScaleOutConfig())
	ladder := []machine.Config{
		withFleetCoupling(machine.WithVillages(machine.ScaleOutConfig())),
		withFleetCoupling(machine.WithLeafSpine(machine.WithVillages(machine.ScaleOutConfig()))),
		withFleetCoupling(machine.WithHWScheduling(machine.WithLeafSpine(machine.WithVillages(machine.ScaleOutConfig())))),
		withFleetCoupling(machine.WithHWContextSwitch(machine.WithHWScheduling(machine.WithLeafSpine(machine.WithVillages(machine.ScaleOutConfig()))))),
	}
	const rps = 15000
	catalog := o.Apps[0].Catalog
	// The base run and the four ladder rungs are five independent
	// simulations — one sweep, base in slot 0.
	cells := []runCell{{base, o.mixedRC(rps, o.Duration)}}
	for _, cfg := range ladder {
		cells = append(cells, runCell{cfg, o.mixedRC(rps, o.Duration)})
	}
	results := sweep.MapCached(o.Parallel, cells)
	baseRes, ladderRes := results[0], results[1:]
	var rows []Fig15Row
	for _, root := range sortedRoots(baseRes.PerRoot) {
		baseSum := baseRes.PerRoot[root]
		row := Fig15Row{App: catalog.Service(root).Name}
		dst := []*float64{&row.Villages, &row.LeafSpine, &row.HWSched, &row.HWCS}
		for i := range ladder {
			sum, ok := ladderRes[i].PerRoot[root]
			if ok && sum.P99 > 0 {
				*dst[i] = baseSum.P99 / sum.P99
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig15Average returns the cross-app mean reductions (the paper's
// "1.1×, 2.3×, 3.9×, and 7.4×" series).
func Fig15Average(rows []Fig15Row) (villages, leafspine, hwsched, hwcs float64) {
	var v, l, h, c []float64
	for _, r := range rows {
		v = append(v, r.Villages)
		l = append(l, r.LeafSpine)
		h = append(h, r.HWSched)
		c = append(c, r.HWCS)
	}
	return stats.Mean(v), stats.Mean(l), stats.Mean(h), stats.Mean(c)
}

// Fig19Row is one application's tail latency across μManycore topology
// configurations, normalized to the default 8×4×32.
type Fig19Row struct {
	App string
	// NormTail maps "coresPerVillage x villagesPerCluster x clusters" to
	// tail latency normalized to the default configuration.
	NormTail map[string]float64
}

// Fig19Config is one §6.6 topology-sensitivity configuration.
type Fig19Config struct {
	Name                                          string
	CoresPerVillage, VillagesPerCluster, Clusters int
}

// Fig19Configs lists the §6.6 sensitivity configurations.
var Fig19Configs = []Fig19Config{
	{"8x4x32", 8, 4, 32},
	{"32x1x32", 32, 1, 32},
	{"32x2x16", 32, 2, 16},
	{"32x4x8", 32, 4, 8},
}

// Fig19 reproduces Figure 19: μManycore topology sensitivity at 15K RPS.
func Fig19(o Options) []Fig19Row {
	o = o.normalized()
	const rps = 15000
	catalog := o.Apps[0].Catalog
	cells := make([]runCell, len(Fig19Configs))
	for i, tc := range Fig19Configs {
		cfg := withFleetCoupling(machine.UManycoreTopologyConfig(tc.CoresPerVillage, tc.VillagesPerCluster, tc.Clusters))
		cells[i] = runCell{cfg, o.mixedRC(rps, o.Duration)}
	}
	results := sweep.MapCached(o.Parallel, cells)
	var rows []Fig19Row
	for _, root := range sortedRoots(results[0].PerRoot) {
		baseSum := results[0].PerRoot[root]
		row := Fig19Row{App: catalog.Service(root).Name, NormTail: map[string]float64{}}
		for i, tc := range Fig19Configs {
			sum, ok := results[i].PerRoot[root]
			if ok && baseSum.P99 > 0 {
				row.NormTail[tc.Name] = sum.P99 / baseSum.P99
			}
		}
		rows = append(rows, row)
	}
	return rows
}
