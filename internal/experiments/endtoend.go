package experiments

import (
	"umanycore/internal/machine"
	"umanycore/internal/power"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
	"umanycore/internal/workload"
)

// E2ERow is one (application, load, architecture) cell of the end-to-end
// grid behind Figures 14 (tail), 16 (average) and 17 (tail-to-average).
// Per §5, the server receives the full SocialNetwork request mix at the
// given total RPS; each row reports one request type's latency within it.
// Latency carries the full per-type summary; AvgMicros, TailMicros and
// Completed are its Mean/P99/N kept as plain columns for the text tables,
// so the JSON encoding elides them (Summary marshals with a stable field
// order shared by umprof and umbench).
type E2ERow struct {
	App         string        `json:"app"`
	RPS         float64       `json:"rps"`
	Arch        string        `json:"arch"`
	Latency     stats.Summary `json:"latency"`
	AvgMicros   float64       `json:"-"`
	TailMicros  float64       `json:"-"`
	TailToAvg   float64       `json:"p99_to_avg"`
	Utilization float64       `json:"util"`
	Completed   uint64        `json:"-"`
	Unfinished  int64         `json:"unfinished"`
}

// EndToEnd runs the full §6.1–§6.4 grid: every architecture × load, with
// per-request-type rows extracted from the mixed run. Cells are independent
// simulations, so they fan out over the sweep pool; rows come back in grid
// order (arch-major, then load, then root ID) for any worker count, and an
// installed cell cache skips cells simulated by a previous run.
func EndToEnd(o Options) []E2ERow {
	o = o.normalized()
	catalog := o.Apps[0].Catalog
	var cells []runCell
	for _, cfg := range archSet() {
		for _, rps := range o.Loads {
			cells = append(cells, runCell{cfg, o.mixedRC(rps, o.Duration)})
		}
	}
	results := sweep.MapCached(o.Parallel, cells)
	var rows []E2ERow
	for i, c := range cells {
		res := results[i]
		for _, root := range sortedRoots(res.PerRoot) {
			sum := res.PerRoot[root]
			ratio := 0.0
			if sum.Mean > 0 {
				ratio = sum.P99 / sum.Mean
			}
			rows = append(rows, E2ERow{
				App:         catalog.Service(root).Name,
				RPS:         c.rc.RPS,
				Arch:        c.cfg.Name,
				Latency:     sum,
				AvgMicros:   sum.Mean,
				TailMicros:  sum.P99,
				TailToAvg:   ratio,
				Utilization: res.Utilization,
				Completed:   uint64(sum.N),
				Unfinished:  res.Unfinished,
			})
		}
	}
	return rows
}

// Reduction summarizes a figure's headline ratios: the mean across apps of
// baseline/μManycore at each load.
type Reduction struct {
	Baseline string
	Metric   string // "tail" or "avg"
	// ByLoad maps RPS -> mean ratio across apps.
	ByLoad map[float64]float64
}

// Reductions computes the Fig 14/16 headline numbers ("μManycore reduces
// the tail latency over ServerClass by 6.3×, 8.3×, and 16.7×...") from an
// EndToEnd grid.
func Reductions(rows []E2ERow, metric string) []Reduction {
	get := func(r E2ERow) float64 {
		if metric == "avg" {
			return r.AvgMicros
		}
		return r.TailMicros
	}
	type key struct {
		app, arch string
		rps       float64
	}
	cell := make(map[key]float64)
	loads := map[float64]bool{}
	apps := map[string]bool{}
	for _, r := range rows {
		cell[key{r.App, r.Arch, r.RPS}] = get(r)
		loads[r.RPS] = true
		apps[r.App] = true
	}
	var out []Reduction
	for _, base := range []string{"ServerClass-40", "ScaleOut"} {
		red := Reduction{Baseline: base, Metric: metric, ByLoad: map[float64]float64{}}
		for rps := range loads {
			var ratios []float64
			for app := range apps {
				b := cell[key{app, base, rps}]
				u := cell[key{app, "uManycore", rps}]
				if b > 0 && u > 0 {
					ratios = append(ratios, b/u)
				}
			}
			red.ByLoad[rps] = stats.Mean(ratios)
		}
		out = append(out, red)
	}
	return out
}

// Fig18Row is one request type's QoS-bounded maximum throughput per
// architecture: the highest total mix RPS at which this type's P99 stays
// within 5× its contention-free average.
type Fig18Row struct {
	App    string
	Arch   string
	MaxRPS float64
}

// Fig18 reproduces Figure 18. The searched request types are restricted to
// o.Apps (the full default suite covers all eight); the offered load is
// always the full mix. Each architecture's searches are one sweep job;
// rows come in architecture order, then mix order.
func Fig18(o Options) []Fig18Row {
	o = o.normalized()
	catalog := o.Apps[0].Catalog
	cells := fig18Cells(o)
	maxes := sweep.MapCached(o.Parallel, cells)
	var rows []Fig18Row
	for i, c := range cells {
		for j, root := range c.roots {
			rows = append(rows, Fig18Row{App: catalog.Service(root).Name, Arch: c.cfg.Name, MaxRPS: maxes[i][j]})
		}
	}
	return rows
}

// fig18Cells runs the contention-free mix once per architecture and
// returns that architecture's search cell, its limits 5× each wanted
// type's contention-free mean.
func fig18Cells(o Options) []fig18Search {
	wanted := map[int]bool{}
	for _, a := range o.Apps {
		wanted[a.Root] = true
	}
	archs := archSet()
	cfCells := make([]runCell, len(archs))
	for i, cfg := range archs {
		cfCells[i] = runCell{cfg, o.mixedRC(100, 2*sim.Second)}
	}
	cfRuns := sweep.MapCached(o.Parallel, cfCells)
	cells := make([]fig18Search, len(archs))
	for i, cfg := range archs {
		c := fig18Search{cfg: cfg, hiRPS: 400000, rc: o.mixedRC(0, o.Duration)}
		if cfg.Name == "ServerClass-40" {
			c.hiRPS = 80000
		}
		for _, e := range workload.SocialNetworkMix() {
			if wanted[e.Root] {
				c.roots = append(c.roots, e.Root)
				c.limits = append(c.limits, 5*cfRuns[i].PerRoot[e.Root].Mean)
			}
		}
		cells[i] = c
	}
	return cells
}

// fig18Search is one architecture's Fig 18 QoS searches ("fig18/search"),
// one binary search per root over its own limit. The searches are one cell
// because a search is an iterative refinement, so the cacheable unit is its
// outcome, and because every root reads its P99 from the same mixed run.
// The cell holds everything a probe reads: the config, the roots and their
// limits, the upper search bound, and the probe RunConfig (rps 0: each
// probe sets it).
type fig18Search struct {
	cfg    machine.Config
	roots  []int
	limits []float64
	hiRPS  float64
	rc     machine.RunConfig
}

func (s fig18Search) Key() []byte {
	if s.rc.Obs != nil || s.rc.Telemetry != nil {
		return nil
	}
	return sweepcache.NewKey("fig18/search").
		Any("cfg", s.cfg).
		Any("roots", s.roots).
		Any("limits", s.limits).
		Float("lo", fig18SearchLoRPS).
		Float("hi", s.hiRPS).
		Any("rc", s.rc).
		Preimage()
}

// Run returns each root's maximum QoS-safe RPS, in roots order. Each root
// keeps its own probe sequence; a load is simulated only the first time a
// root probes it, and its per-root summaries are kept (nil when more than
// 1% of roots were rejected or unfinished: no root passes there).
func (s fig18Search) Run() []float64 {
	probes := map[float64]map[int]stats.Summary{}
	maxes := make([]float64, len(s.roots))
	for i, root := range s.roots {
		ok := func(rps float64) bool {
			per, done := probes[rps]
			if !done {
				rc := s.rc
				rc.RPS = rps
				res := machine.Run(s.cfg, rc)
				bad := float64(res.Rejected) + float64(res.Unfinished)
				if res.Completed > 0 && bad <= 0.01*float64(res.Submitted) {
					per = res.PerRoot
				}
				probes[rps] = per
			}
			sum, okRoot := per[root]
			return okRoot && sum.N > 0 && sum.P99 <= s.limits[i]
		}
		maxes[i] = binarySearchMax(ok, fig18SearchLoRPS, s.hiRPS)
	}
	return maxes
}

// fig18SearchLoRPS is the QoS search's lower bound. It is part of every
// fig18/search cell's key: changing it must invalidate cached search
// outcomes.
const fig18SearchLoRPS = 2000

// mixedRC is the RunConfig of one mixed-workload cell.
//
// Every cell of the mixed grid shares the base seed: the cross-arch and
// cross-load ratios the figures report are paired comparisons over the
// same arrival randomness, exactly as in the sequential driver. (A
// constant is still a pure function of the job, so the sweep determinism
// contract holds.)
func (o Options) mixedRC(rps float64, dur sim.Time) machine.RunConfig {
	rc := o.runCfg(o.Apps[0], rps)
	rc.Duration = dur
	rc.Mix = workload.SocialNetworkMix()
	return rc
}

// binarySearchMax finds the largest x in [lo, hi] with ok(x), assuming ok
// is (noisily) monotone decreasing; returns lo when even lo fails.
func binarySearchMax(ok func(float64) bool, lo, hi float64) float64 {
	if !ok(lo) {
		return lo
	}
	for hi-lo > 0.06*lo {
		mid := (lo + hi) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Sec68Row is one cell of the §6.8 iso-area comparison: the 128-core
// ServerClass vs μManycore within the mixed workload.
type Sec68Row struct {
	App       string
	RPS       float64
	SC128Tail float64
	UMCTail   float64
	TailRatio float64
}

// Sec68Result bundles the iso-area study: per-app/load tails plus the
// area/power bookkeeping from the CACTI/McPAT stand-in.
type Sec68Result struct {
	Rows []Sec68Row
	// MeanTailRatio across apps and loads (paper: ≈7.3×).
	MeanTailRatio float64
	// PowerRatio of the 128-core ServerClass over μManycore (paper: 3.2×).
	PowerRatio float64
	// AreaRatio of the two packages (≈1 by construction).
	AreaRatio float64
}

// Sec68 reproduces §6.8: scale ServerClass to 128 cores (iso-area with
// μManycore) and compare tails and power.
func Sec68(o Options) Sec68Result {
	o = o.normalized()
	catalog := o.Apps[0].Catalog
	sc := withFleetCoupling(machine.ServerClassConfig(128))
	umc := withFleetCoupling(machine.UManycoreConfig())
	var out Sec68Result
	var ratios []float64
	var cells []runCell
	for _, rps := range o.Loads {
		for _, cfg := range []machine.Config{sc, umc} {
			cells = append(cells, runCell{cfg, o.mixedRC(rps, o.Duration)})
		}
	}
	grid := sweep.MapCached(o.Parallel, cells)
	for i, rps := range o.Loads {
		scRes, uRes := grid[2*i], grid[2*i+1]
		for _, root := range sortedRoots(scRes.PerRoot) {
			scSum := scRes.PerRoot[root]
			uSum, ok := uRes.PerRoot[root]
			if !ok || uSum.P99 <= 0 {
				continue
			}
			row := Sec68Row{
				App: catalog.Service(root).Name, RPS: rps,
				SC128Tail: scSum.P99, UMCTail: uSum.P99,
				TailRatio: scSum.P99 / uSum.P99,
			}
			ratios = append(ratios, row.TailRatio)
			out.Rows = append(out.Rows, row)
		}
	}
	out.MeanTailRatio = stats.Mean(ratios)
	out.PowerRatio = power.ServerClassChip(128).TotalPower() / power.UManycoreChip().TotalPower()
	out.AreaRatio = power.ServerClassChip(128).TotalArea() / power.UManycoreChip().TotalArea()
	return out
}
