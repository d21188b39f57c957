package experiments

import (
	"fmt"

	"umanycore/internal/machine"
	"umanycore/internal/sched"
	"umanycore/internal/sweep"
	"umanycore/internal/workload"
)

// Fig3Row is one x-axis point of Figure 3: the queue-count sweep on the
// 1024-core ScaleOut manycore at 50K RPS.
type Fig3Row struct {
	Queues          int
	AvgMicros       float64
	TailMicros      float64
	AvgStealMicros  float64
	TailStealMicros float64
}

// appNamed fetches one DeathStarBench-style app by name.
func appNamed(name string) *workload.App {
	for _, a := range workload.SocialNetworkApps() {
		if a.Name == name {
			return a
		}
	}
	panic("no app " + name)
}

// fig3App is the workload for the queue sweep. CPost's op rate puts the
// single shared contended lock near its saturation point at 50K RPS (the
// §3.2 "synchronization overhead" extreme) while whole-tree pinning exposes
// imbalance at the per-core-queue extreme.
func fig3App() *workload.App { return appNamed("CPost") }

// fig7App is the ICN-study workload: CPost, the call-heaviest tree,
// maximal ICN traffic.
func fig7App() *workload.App { return appNamed("CPost") }

// fig6App is the workload for the context-switch sweep; its blocking rate
// matches the SocialNetwork application the paper names.
func fig6App() *workload.App { return appNamed("SGraph") }

// Fig3 reproduces Figure 3: average and tail response time vs the number of
// queues (1024 per-core queues down to 1 global queue), with and without
// work stealing. Per the paper, whole requests are assigned to queues
// randomly and migrate only via stealing; queues are lock-protected FCFS
// (the "fully-centralized queue induces high synchronization overheads,
// per-core queues cause load imbalance and head-of-line blocking" story
// of §3.2).
func Fig3(o Options) []Fig3Row {
	o = o.normalized()
	app := fig3App()
	queueCounts := []int{1024, 512, 256, 128, 64, 32, 16, 8, 4, 2, 1}
	mkCfg := func(q int, steal bool) machine.Config {
		cfg := machine.ScaleOutConfig()
		cfg.Domains = q
		cfg.TreeAffinity = true
		// Isolate queue-structure effects from the I/O funnel (the
		// paper studies ICN contention separately in Fig 7).
		cfg.IOViaICN = false
		cfg.Policy = sched.Policy{
			CSCycles:      sched.SoftwareCSCycles,
			DequeueCycles: 100,
			EnqueueCycles: 60,
			WorkStealing:  steal,
			StealCycles:   sched.ZygOSSched().StealCycles,
		}
		return cfg
	}
	var cells []runCell
	for _, q := range queueCounts {
		// Steal/no-steal at one queue count share a seed: the pair is a
		// paired comparison over the same arrival sequence.
		rc := o.runCfgKey(app, 50000, fmt.Sprintf("fig3/%d", q))
		cells = append(cells, runCell{mkCfg(q, false), rc}, runCell{mkCfg(q, true), rc})
	}
	grid := sweep.MapCached(o.Parallel, cells)
	rows := make([]Fig3Row, 0, len(queueCounts))
	for i, q := range queueCounts {
		noSteal, steal := grid[2*i], grid[2*i+1]
		rows = append(rows, Fig3Row{
			Queues:          q,
			AvgMicros:       noSteal.Latency.Mean,
			TailMicros:      noSteal.Latency.P99,
			AvgStealMicros:  steal.Latency.Mean,
			TailStealMicros: steal.Latency.P99,
		})
	}
	return rows
}

// Fig6Row is one context-switch-overhead point for one load level.
type Fig6Row struct {
	CSCycles int
	// NormTail is tail latency normalized to the zero-overhead run at the
	// same load, keyed by RPS.
	NormTail map[int]float64
}

// Fig6 reproduces Figure 6: the impact of context-switch overhead (0–8192
// cycles) on tail latency at 5K, 10K, and 50K RPS, on the 1024-core
// ScaleOut running the SocialNetwork app under the centralized Shinjuku
// scheduler of §4.4 (whose dispatcher performs every save/restore — the
// bottleneck the paper identifies).
func Fig6(o Options) []Fig6Row {
	o = o.normalized()
	app := fig6App()
	loads := []int{5000, 10000, 50000}
	csPoints := []int{0, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

	// One sweep over the full (CS overhead × load) grid; the zero-overhead
	// column doubles as the normalization baseline, so its NormTail is
	// exactly 1 as in the sequential path.
	mkCfg := func(cs int) machine.Config {
		cfg := machine.ScaleOutConfig()
		cfg.CentralDispatcher = true
		cfg.Policy.CSCycles = cs
		return cfg
	}
	var cells []p99Cell
	for _, cs := range csPoints {
		for _, rps := range loads {
			// All CS points at one load share a seed, so the normalized
			// tails isolate the context-switch overhead from arrival noise.
			rc := o.runCfgKey(app, float64(rps), fmt.Sprintf("fig6/%d", rps))
			cells = append(cells, p99Cell{runCell{mkCfg(cs), rc}})
		}
	}
	tails := sweep.MapCached(o.Parallel, cells)
	rows := make([]Fig6Row, 0, len(csPoints))
	for i, cs := range csPoints {
		row := Fig6Row{CSCycles: cs, NormTail: make(map[int]float64)}
		for j, rps := range loads {
			if base := tails[j]; base > 0 {
				row.NormTail[rps] = tails[i*len(loads)+j] / base
			}
		}
		rows = append(rows, row)
	}
	return rows
}
