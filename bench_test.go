package umanycore

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (DESIGN.md §3 maps each to its experiment). Each
// benchmark regenerates its figure at reduced fidelity and reports the
// figure's headline number as a custom metric, so `go test -bench=.`
// doubles as a quick reproduction check. cmd/umbench runs the same
// experiments at full fidelity.

import (
	"fmt"
	"testing"

	"umanycore/internal/experiments"
	"umanycore/internal/icn"
	"umanycore/internal/power"
	"umanycore/internal/stats"
	"umanycore/internal/uarch"
	"umanycore/internal/workload"
)

// benchOptions returns fast experiment settings for benchmarking.
func benchOptions() ExperimentOptions {
	o := experiments.DefaultOptions()
	o.Duration = 80 * Millisecond
	o.Warmup = 15 * Millisecond
	o.Drain = 300 * Millisecond
	return o
}

// BenchmarkFig01MicroarchOptimizations regenerates Figure 1 and reports the
// monolithic-vs-microservice speedup gap of the data prefetcher.
func BenchmarkFig01MicroarchOptimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := uarch.RunFig1(60000, 42)
		var mono, micro float64
		for _, r := range rows {
			if r.Optimization == "D-Prefetcher" {
				if r.Class == uarch.Monolithic {
					mono = r.Speedup
				} else {
					micro = r.Speedup
				}
			}
		}
		b.ReportMetric(mono, "mono-speedup")
		b.ReportMetric(micro, "micro-speedup")
	}
}

// BenchmarkFig02ServerLoadCDF regenerates Figure 2 and reports the fraction
// of seconds at ≥1000 RPS (paper: ≈20%).
func BenchmarkFig02ServerLoadCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := Fig2(benchOptions())
		for _, p := range pts {
			if p.X == 1000 {
				b.ReportMetric(1-p.P, "frac>=1000rps")
			}
		}
	}
}

// BenchmarkFig03QueueCount regenerates Figure 3 and reports the
// per-core-queue tail inflation over the 32-queue sweet spot (paper: 4.1×).
func BenchmarkFig03QueueCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3(benchOptions())
		var q1024, q32 float64
		for _, r := range rows {
			switch r.Queues {
			case 1024:
				q1024 = r.TailMicros
			case 32:
				q32 = r.TailMicros
			}
		}
		b.ReportMetric(stats.Ratio(q1024, q32), "percore-tail-inflation")
	}
}

// BenchmarkFig04CPUUtilCDF regenerates Figure 4 and reports the median
// per-request CPU utilization (paper: ≈0.14).
func BenchmarkFig04CPUUtilCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := workload.NewTraceGen(42)
		var s stats.Sample
		for _, r := range g.Requests(50000) {
			s.Add(r.CPUUtil)
		}
		b.ReportMetric(s.Median(), "median-cpu-util")
	}
}

// BenchmarkFig05RPCCDF regenerates Figure 5 and reports the median RPC
// count per request (paper: ≈4.2).
func BenchmarkFig05RPCCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := workload.NewTraceGen(43)
		var s stats.Sample
		for _, r := range g.Requests(50000) {
			s.Add(float64(r.RPCs))
		}
		b.ReportMetric(s.Median(), "median-rpcs")
	}
}

// BenchmarkFig06ContextSwitch regenerates Figure 6 and reports the
// 8192-cycle tail inflation at 50K RPS (paper: 26–38× for Linux-scale CS).
func BenchmarkFig06ContextSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6(benchOptions())
		for _, r := range rows {
			if r.CSCycles == 8192 {
				b.ReportMetric(r.NormTail[50000], "linux-cs-inflation-50k")
			}
		}
	}
}

// BenchmarkFig07ICNContention regenerates Figure 7 and reports the mesh
// tail inflation at 50K RPS (paper: 14.7×).
func BenchmarkFig07ICNContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(benchOptions())
		last := rows[len(rows)-1]
		b.ReportMetric(last.MeshNorm, "mesh-inflation-50k")
		b.ReportMetric(last.FatTreeNorm, "fattree-inflation-50k")
	}
}

// BenchmarkFig08FootprintSharing regenerates Figure 8 and reports the
// handler-handler data-page sharing fraction (paper: 78–99%).
func BenchmarkFig08FootprintSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Fig8(benchOptions())
		b.ReportMetric(rows[0].DPage, "hh-dpage-shared")
	}
}

// BenchmarkFig09CacheHitRates regenerates Figure 9 and reports the data L1
// cache hit rate (paper: >95%).
func BenchmarkFig09CacheHitRates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range Fig9(benchOptions()) {
			if r.Class == "Data" && r.Structure == "L1Cache" {
				b.ReportMetric(r.HitRate, "data-l1-hit-rate")
			}
		}
	}
}

// BenchmarkFig14TailLatency regenerates the Figure 14 grid and reports the
// mean tail reduction over ServerClass at 15K RPS (paper: 16.7×).
func BenchmarkFig14TailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := EndToEnd(benchOptions())
		for _, red := range Reductions(rows, "tail") {
			if red.Baseline == "ServerClass-40" {
				b.ReportMetric(red.ByLoad[15000], "tail-reduction-15k")
			}
		}
	}
}

// BenchmarkFig15Breakdown regenerates Figure 15 and reports the full-ladder
// tail reduction over ScaleOut (paper: 7.4×).
func BenchmarkFig15Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Fig15(benchOptions())
		_, _, _, hwcs := Fig15Average(rows)
		b.ReportMetric(hwcs, "ladder-reduction")
	}
}

// BenchmarkFig16AvgLatency regenerates the Figure 16 series and reports the
// mean average-latency reduction over ScaleOut at 15K (paper: 3.2×).
func BenchmarkFig16AvgLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := EndToEnd(benchOptions())
		for _, red := range Reductions(rows, "avg") {
			if red.Baseline == "ScaleOut" {
				b.ReportMetric(red.ByLoad[15000], "avg-reduction-15k")
			}
		}
	}
}

// BenchmarkFig17TailToAvg regenerates the Figure 17 metric and reports
// μManycore's mean tail-to-average ratio across apps at 15K.
func BenchmarkFig17TailToAvg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := EndToEnd(benchOptions())
		var umc, sc []float64
		for _, r := range rows {
			if r.RPS != 15000 {
				continue
			}
			switch r.Arch {
			case "uManycore":
				umc = append(umc, r.TailToAvg)
			case "ServerClass-40":
				sc = append(sc, r.TailToAvg)
			}
		}
		b.ReportMetric(stats.Mean(umc), "umc-tail-to-avg")
		b.ReportMetric(stats.Mean(sc), "sc-tail-to-avg")
	}
}

// BenchmarkFig18Throughput regenerates Figure 18 on a two-app subset and
// reports μManycore's QoS-safe throughput advantage (paper: 15.5× over
// ServerClass).
func BenchmarkFig18Throughput(b *testing.B) {
	o := benchOptions()
	o.Apps = o.Apps[:0]
	for _, a := range workload.SocialNetworkApps() {
		if a.Name == "HomeT" || a.Name == "UrlShort" {
			o.Apps = append(o.Apps, a)
		}
	}
	for i := 0; i < b.N; i++ {
		rows := Fig18(o)
		perArch := map[string][]float64{}
		for _, r := range rows {
			perArch[r.Arch] = append(perArch[r.Arch], r.MaxRPS)
		}
		umc := stats.Mean(perArch["uManycore"])
		sc := stats.Mean(perArch["ServerClass-40"])
		b.ReportMetric(umc, "umc-max-rps")
		b.ReportMetric(stats.Ratio(umc, sc), "throughput-advantage")
	}
}

// BenchmarkFig19Sensitivity regenerates Figure 19 and reports the widest
// per-config deviation from the default topology (paper: within ~15%).
func BenchmarkFig19Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Fig19(benchOptions())
		var worst float64 = 1
		for _, r := range rows {
			for _, v := range r.NormTail {
				if v > worst {
					worst = v
				}
			}
		}
		b.ReportMetric(worst, "worst-config-norm-tail")
	}
}

// BenchmarkFig20Synthetic regenerates Figure 20 and reports μManycore's
// mean tail reduction over ServerClass across distributions and loads
// (paper: 9.1×).
func BenchmarkFig20Synthetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Fig20(benchOptions())
		var ratios []float64
		for _, r := range rows {
			if r.UManycoreTail > 0 {
				ratios = append(ratios, r.ServerClassTail/r.UManycoreTail)
			}
		}
		b.ReportMetric(stats.Mean(ratios), "synthetic-tail-reduction")
	}
}

// BenchmarkSec68IsoArea regenerates §6.8 and reports the iso-area tail and
// power ratios (paper: 7.3× and 3.2×).
func BenchmarkSec68IsoArea(b *testing.B) {
	o := benchOptions()
	o.Loads = []float64{15000}
	for i := 0; i < b.N; i++ {
		res := Sec68(o)
		b.ReportMetric(res.MeanTailRatio, "iso-area-tail-ratio")
		b.ReportMetric(res.PowerRatio, "iso-area-power-ratio")
	}
}

// BenchmarkPowerModel evaluates the CACTI/McPAT stand-in and reports the
// anchored per-core powers (§5).
func BenchmarkPowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := power.CorePower(power.ServerClassCore())
		umc := power.CorePower(power.UManycoreCore())
		b.ReportMetric(sc, "serverclass-core-w")
		b.ReportMetric(umc, "umanycore-core-w")
	}
}

// BenchmarkEndToEndGridWorkers times the Figures 14/16/17 grid at several
// sweep worker counts. The ns/op ratio between workers=1 and workers=8 is
// the sweep runner's wall-clock speedup; the rows are bit-identical across
// entries (TestEndToEndParallelDeterminism), so only the timing differs.
func BenchmarkEndToEndGridWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := benchOptions()
			o.Parallel = workers
			for i := 0; i < b.N; i++ {
				if rows := EndToEnd(o); len(rows) == 0 {
					b.Fatal("empty grid")
				}
			}
		})
	}
}

// BenchmarkFig3Workers times the Figure 3 queue sweep (22 cells) at 1 vs all
// workers — the paired-seed counterpart of BenchmarkEndToEndGridWorkers.
func BenchmarkFig3Workers(b *testing.B) {
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := benchOptions()
			o.Parallel = workers
			for i := 0; i < b.N; i++ {
				if rows := experiments.Fig3(o); len(rows) == 0 {
					b.Fatal("empty sweep")
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: events per
// second for a mixed 15K-RPS μManycore run (a performance, not a
// reproduction, benchmark).
func BenchmarkSimulatorThroughput(b *testing.B) {
	apps := SocialNetworkApps()
	var events uint64
	for i := 0; i < b.N; i++ {
		res := Run(UManycore(), RunConfig{
			App: apps[0], Mix: SocialNetworkMix(),
			RPS: 15000, Duration: 100 * Millisecond,
			Warmup: 20 * Millisecond, Drain: 300 * Millisecond,
			Seed: int64(i + 1),
		})
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// --- Ablation benchmarks for the design options DESIGN.md calls out ---

// BenchmarkAblationRQPartition compares co-located villages with a shared
// RQ against the §4.3 partitioned-RQ design (RQ_Map) and reports both
// tails.
func BenchmarkAblationRQPartition(b *testing.B) {
	apps := SocialNetworkApps()
	run := func(partition bool, seed int64) float64 {
		cfg := UManycore()
		cfg.Extensions.ColocatedServices = 2
		cfg.Extensions.PartitionRQ = partition
		res := Run(cfg, RunConfig{
			App: apps[0], Mix: SocialNetworkMix(),
			RPS: 20000, Duration: 120 * Millisecond,
			Warmup: 20 * Millisecond, Drain: 400 * Millisecond, Seed: seed,
		})
		return res.Latency.P99
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false, int64(i+1)), "shared-rq-p99-us")
		b.ReportMetric(run(true, int64(i+1)), "partitioned-rq-p99-us")
	}
}

// BenchmarkAblationCoreStealing measures the §8 core-stealing extension
// under co-location.
func BenchmarkAblationCoreStealing(b *testing.B) {
	apps := SocialNetworkApps()
	run := func(steal bool, seed int64) float64 {
		cfg := UManycore()
		cfg.Extensions.ColocatedServices = 2
		cfg.Extensions.CoreStealing = steal
		res := Run(cfg, RunConfig{
			App: apps[0], Mix: SocialNetworkMix(),
			RPS: 20000, Duration: 120 * Millisecond,
			Warmup: 20 * Millisecond, Drain: 400 * Millisecond, Seed: seed,
		})
		return res.Latency.P99
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false, int64(i+1)), "no-steal-p99-us")
		b.ReportMetric(run(true, int64(i+1)), "steal-p99-us")
	}
}

// BenchmarkAblationHeterogeneousVillages measures the §8 heterogeneous
// village extension (a quarter of villages with ServerClass-speed cores).
func BenchmarkAblationHeterogeneousVillages(b *testing.B) {
	apps := SocialNetworkApps()
	run := func(hetero bool, seed int64) float64 {
		cfg := UManycore()
		if hetero {
			cfg.Extensions.BigVillageFrac = 0.25
			cfg.Extensions.BigCorePerf = 1.65
		}
		res := Run(cfg, RunConfig{
			App: apps[0], Mix: SocialNetworkMix(),
			RPS: 15000, Duration: 120 * Millisecond,
			Warmup: 20 * Millisecond, Drain: 400 * Millisecond, Seed: seed,
		})
		return res.Latency.P99
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false, int64(i+1)), "homogeneous-p99-us")
		b.ReportMetric(run(true, int64(i+1)), "heterogeneous-p99-us")
	}
}

// BenchmarkAblationWorkStealingQueues measures Fig 3's work-stealing rescue
// of per-core queues.
func BenchmarkAblationWorkStealingQueues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig3(benchOptions())
		for _, r := range rows {
			if r.Queues == 1024 {
				b.ReportMetric(r.TailMicros, "percore-p99-us")
				b.ReportMetric(r.TailStealMicros, "percore-steal-p99-us")
			}
		}
	}
}

// BenchmarkAblationECMPPolicy compares random vs least-loaded spine
// selection in the leaf-spine ICN.
func BenchmarkAblationECMPPolicy(b *testing.B) {
	apps := SocialNetworkApps()
	run := func(leastLoaded bool, seed int64) float64 {
		cfg := UManycore()
		if leastLoaded {
			cfg.LeafSpineCfg.Select = icn.LeastLoadedSpine
		}
		res := Run(cfg, RunConfig{
			App: apps[0], Mix: SocialNetworkMix(),
			RPS: 50000, Duration: 120 * Millisecond,
			Warmup: 20 * Millisecond, Drain: 400 * Millisecond, Seed: seed,
		})
		return res.Latency.P99
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false, int64(i+1)), "random-ecmp-p99-us")
		b.ReportMetric(run(true, int64(i+1)), "leastloaded-ecmp-p99-us")
	}
}

// BenchmarkAblationLossyStorage measures tail sensitivity to storage-network
// loss through the R-NIC's retransmission path (§4.1's lossy-transport
// model).
func BenchmarkAblationLossyStorage(b *testing.B) {
	apps := SocialNetworkApps()
	run := func(loss float64, seed int64) float64 {
		cfg := UManycore()
		cfg.StorageLossProb = loss
		res := Run(cfg, RunConfig{
			App: apps[0], Mix: SocialNetworkMix(),
			RPS: 15000, Duration: 120 * Millisecond,
			Warmup: 20 * Millisecond, Drain: 400 * Millisecond, Seed: seed,
		})
		return res.Latency.P99
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(0, int64(i+1)), "lossless-p99-us")
		b.ReportMetric(run(0.02, int64(i+1)), "loss2pct-p99-us")
	}
}

// BenchmarkMuSuite runs the μSuite mix (the paper's second benchmark suite)
// across the three architectures at 15K RPS and reports P99s.
func BenchmarkMuSuite(b *testing.B) {
	apps := MuSuiteApps()
	run := func(cfg Config, seed int64) float64 {
		res := Run(cfg, RunConfig{
			App: apps[0], Mix: MuSuiteMix(),
			RPS: 15000, Duration: 120 * Millisecond,
			Warmup: 20 * Millisecond, Drain: 400 * Millisecond, Seed: seed,
		})
		return res.Latency.P99
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(ServerClass(40), int64(i+1)), "serverclass-p99-us")
		b.ReportMetric(run(ScaleOut(), int64(i+1)), "scaleout-p99-us")
		b.ReportMetric(run(UManycore(), int64(i+1)), "umanycore-p99-us")
	}
}
