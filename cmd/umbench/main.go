// Command umbench regenerates every table and figure of the paper's
// evaluation and prints them as text tables — the source of EXPERIMENTS.md.
//
// Usage:
//
//	umbench [-quick] [-seed N] [-parallel N]
//	        [-figures 1,2,3,...] [-json FILE]
//	        [-cache DIR] [-cache-verify] [-cache-clear] [-cpuprofile FILE]
//
// -figures takes a comma-separated subset of the names in the figures
// table (default: all); an unknown name exits 2 and lists them. -parallel
// bounds the sweep worker pool (default: all cores); output is
// bit-identical for any value. Each coupled fleet runs its PDES windows
// sequentially on one engine.
//
// -baseline FILE diffs this run's figure rows (the -json payload) against a
// checked-in baseline JSON (e.g. BENCH_lb_baseline.json), prints per-metric
// Δ%, appends a trajectory point to FILE.trajectory.jsonl, and exits
// nonzero when any |Δ| exceeds -baseline-threshold (unless -baseline-warn).
// -figures must then select exactly one row-producing figure; anything else
// exits 2 before simulating.
//
// -cache DIR keeps a content-addressed store of finished sweep cells, so an
// interrupted or re-run regeneration only simulates cells whose inputs
// changed. -cache-verify recomputes every cached cell anyway and exits
// nonzero if any recomputation fails to reproduce the cached bytes.
// -cache-clear empties the store before running.
//
// -cpuprofile FILE writes a pprof CPU profile of the whole run, e.g.
// `go tool pprof -top umbench FILE`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"umanycore"
	"umanycore/internal/cli"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
	"umanycore/internal/textplot"
)

// figures is every figure umbench can regenerate, in run order. A figure
// with rows captures them for -json and -baseline.
var figures = []struct {
	name string
	run  func(umanycore.ExperimentOptions)
	rows bool
}{
	{"1", fig1, false},
	{"2", func(o umanycore.ExperimentOptions) {
		cdf("Figure 2: CDF of per-server load (RPS)", umanycore.Fig2(o), "%6.0f RPS")
	}, false},
	{"3", fig3, false},
	{"4", func(o umanycore.ExperimentOptions) {
		cdf("Figure 4: CDF of CPU utilization per request", umanycore.Fig4(o), "%6.2f")
	}, false},
	{"5", func(o umanycore.ExperimentOptions) {
		cdf("Figure 5: CDF of RPC invocations per request", umanycore.Fig5(o), "%6.0f RPCs")
	}, false},
	{"6", fig6, false},
	{"7", fig7, false},
	{"8", fig8, false},
	{"9", fig9, false},
	{"e2e", endToEnd, true},
	{"15", fig15, false},
	{"18", fig18, false},
	{"19", fig19, false},
	{"20", fig20, false},
	{"68", sec68, false},
	{"power", func(umanycore.ExperimentOptions) { powerTable() }, false},
	{"lb", fleetLB, true},
	{"graph", fleetGraph, true},
	{"scale", fleetScale, true},
	{"control", fleetControl, true},
	{"whatif", whatIfFig, true},
}

func main() {
	quick := flag.Bool("quick", false, "reduced-fidelity settings (faster, noisier)")
	flag.BoolVar(&ascii, "ascii", false, "render ASCII charts next to the tables")
	jsonOut := flag.String("json", "", "also write the rows of the row-producing figures (e2e, lb, graph, scale, control, whatif) as JSON to FILE ('-' for stdout): a bare array for one such figure, an object keyed by figure name in run order for several; latency objects use the stats.Summary encoding shared with umprof/umsim")
	seed := flag.Int64("seed", 42, "simulation seed")
	parallel := flag.Int("parallel", 0, "sweep workers (<=0: all cores); results are identical for any value")
	figureList := flag.String("figures", "all", "comma-separated figure list (1..9, e2e, 15, 18, 19, 20, 68, power, lb, graph, scale, control, whatif)")
	baseline := flag.String("baseline", "", "diff the rows of the one row-producing figure in -figures against a checked-in baseline JSON FILE and exit nonzero past -baseline-threshold")
	baselineThreshold := flag.Float64("baseline-threshold", 5, "max |delta| percent tolerated by -baseline before failing")
	baselineWarn := flag.Bool("baseline-warn", false, "report -baseline drift without failing (warn-only)")
	serve := flag.String("serve", "", "serve live /metrics, /healthz, /progress (sweep cells done + ETA) and pprof on this address during the regeneration (e.g. :9090)")
	cacheDir := flag.String("cache", "", "content-addressed sweep-cell cache directory (created if missing); re-runs skip cells already simulated with identical inputs")
	cacheVerify := flag.Bool("cache-verify", false, "recompute cached cells and fail if any recomputation does not reproduce the cached bytes (requires -cache)")
	cacheClear := flag.Bool("cache-clear", false, "empty the cache before running (requires -cache)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to FILE")
	cli.Parse("umbench")

	if !(*baselineThreshold >= 0) {
		fatal(fmt.Errorf("-baseline-threshold %v is out of range: want a non-negative drift percentage", *baselineThreshold))
	}

	if err := cli.StartCPUProfile(*cpuProfile); err != nil {
		fatal(err)
	}
	defer func() {
		if err := cli.StopCPUProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "umbench:", err)
		}
	}()

	var cache *sweepcache.Cache
	if *cacheDir != "" {
		var err error
		cache, err = sweepcache.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		if *cacheClear {
			if err := cache.Clear(); err != nil {
				fatal(err)
			}
		}
		cache.SetVerify(*cacheVerify)
		sweep.SetCache(cache)
	} else if *cacheVerify || *cacheClear {
		fatal(fmt.Errorf("-cache-verify and -cache-clear require -cache DIR"))
	}

	if err := cli.Serve("umbench", *serve); err != nil {
		fatal(err)
	}

	o := umanycore.DefaultExperimentOptions()
	o.Seed = *seed
	o.Parallel = *parallel
	if *quick {
		o = o.Quick()
	}

	var known, rowFigures []string
	for _, f := range figures {
		known = append(known, f.name)
		if f.rows {
			rowFigures = append(rowFigures, f.name)
		}
	}
	want := map[string]bool{}
	if *figureList == "all" {
		for _, f := range known {
			want[f] = true
		}
	} else {
		for _, f := range strings.Split(*figureList, ",") {
			name := strings.TrimSpace(f)
			if !slices.Contains(known, name) {
				fatal(fmt.Errorf("unknown figure %q (want a comma-separated subset of %v)", name, known))
			}
			want[name] = true
		}
	}

	// -baseline diffs one figure's rows against one file, so it needs
	// exactly one row-producing figure; refuse anything else before
	// simulating.
	if *baseline != "" {
		var picked []string
		for _, f := range rowFigures {
			if want[f] {
				picked = append(picked, f)
			}
		}
		if len(picked) != 1 {
			fatal(fmt.Errorf("-baseline needs exactly one row-producing figure (one of %s) in -figures; got %d %v",
				strings.Join(rowFigures, ", "), len(picked), picked))
		}
	}

	workers := sweep.Workers(o.Parallel)
	var totalWall, totalBusy time.Duration
	for _, f := range figures {
		if !want[f.name] {
			continue
		}
		sweep.ResetBusy()
		start := time.Now()
		f.run(o)
		wall := time.Since(start)
		busy := sweep.Busy()
		totalWall += wall
		totalBusy += busy
		fmt.Fprintf(os.Stderr, "[%s done in %v%s]\n",
			f.name, wall.Round(time.Millisecond), speedupNote(busy, wall, workers))
	}
	fmt.Fprintf(os.Stderr, "[total %v with %d workers%s]\n",
		totalWall.Round(time.Millisecond), workers, speedupNote(totalBusy, totalWall, workers))

	if cache != nil {
		s := cache.Snapshot()
		fmt.Fprintf(os.Stderr, "[cache %s: %d hits, %d misses, %d stores, %d invalidated, %d verify mismatches]\n",
			cache.Dir(), s.Hits, s.Misses, s.Stores, s.Invalid, s.Mismatches)
		if lines := cache.Mismatches(); len(lines) > 0 {
			for _, l := range lines {
				fmt.Fprintln(os.Stderr, "umbench: verify mismatch:", l)
			}
			cli.Exit(1)
		}
	}

	if *jsonOut != "" && len(captured) > 0 {
		var payload any = figureSet(captured)
		if len(captured) == 1 {
			payload = captured[0].rows
		}
		if err := writeRowsJSON(*jsonOut, payload); err != nil {
			fmt.Fprintln(os.Stderr, "umbench:", err)
			cli.Exit(1)
		}
	}

	if *baseline != "" {
		if err := diffBaseline(*baseline, captured[0].rows, *baselineThreshold, *baselineWarn); err != nil {
			fmt.Fprintln(os.Stderr, "umbench:", err)
			cli.Exit(1)
		}
	}
}

func fatal(err error) { cli.Fatal("umbench", err) }

// speedupNote formats the estimated speedup over -parallel 1 for one span of
// wall time: sweep busy time (the sum of per-job sim durations, which is what
// a single worker would have spent) divided by elapsed time. The estimate is
// capped at min(workers, GOMAXPROCS): when workers oversubscribe the cores,
// time-slicing inflates per-job durations, and the machine cannot beat its
// core count on CPU-bound sims anyway. Empty when the span ran no sweep jobs
// or gained nothing.
func speedupNote(busy, wall time.Duration, workers int) string {
	if busy <= 0 || wall <= 0 {
		return ""
	}
	s := float64(busy) / float64(wall)
	if cap := float64(min(workers, runtime.GOMAXPROCS(0))); s > cap {
		s = cap
	}
	if s < 1.05 {
		return ""
	}
	return fmt.Sprintf(", est %.1fx vs -parallel 1", s)
}

// ascii enables chart rendering (set by the -ascii flag).
var ascii bool

// figureRows is one row-producing figure's rows, kept for -json and
// -baseline.
type figureRows struct {
	name string
	rows any
}

// captured holds the rows of every row-producing figure, in run order. -json
// writes them after the run; -baseline diffs the one figure it allows.
var captured []figureRows

func header(title string) {
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

func fig1(o umanycore.ExperimentOptions) {
	header("Figure 1: microarchitectural optimizations, monolithic vs microservice speedup")
	fmt.Printf("%-18s %-14s %10s\n", "optimization", "workload", "speedup")
	for _, r := range umanycore.Fig1(o) {
		fmt.Printf("%-18s %-14s %9.2fx\n", r.Optimization, r.Class, r.Speedup)
	}
}

func cdf(title string, pts []umanycore.CDFPoint, xfmt string) {
	header(title)
	fmt.Printf("%12s %8s\n", "x", "P(X<=x)")
	for _, p := range pts {
		fmt.Printf("%12s %8.3f\n", fmt.Sprintf(xfmt, p.X), p.P)
	}
	if ascii {
		var tp []textplot.Point
		for _, p := range pts {
			tp = append(tp, textplot.Point{X: p.X, Y: p.P})
		}
		fmt.Println(textplot.CDF("", tp, 60, 12))
	}
}

func fig3(o umanycore.ExperimentOptions) {
	header("Figure 3: response time vs number of queues (ScaleOut, 50K RPS)")
	fmt.Printf("%7s %12s %12s %14s %14s\n", "queues", "avg [us]", "tail [us]", "avg+steal", "tail+steal")
	for _, r := range umanycore.Fig3(o) {
		fmt.Printf("%7d %12.1f %12.1f %14.1f %14.1f\n",
			r.Queues, r.AvgMicros, r.TailMicros, r.AvgStealMicros, r.TailStealMicros)
	}
}

func fig6(o umanycore.ExperimentOptions) {
	header("Figure 6: normalized tail latency vs context-switch overhead (ScaleOut, central dispatcher)")
	fmt.Printf("%10s %10s %10s %10s\n", "CS cycles", "5K RPS", "10K RPS", "50K RPS")
	rows6 := umanycore.Fig6(o)
	for _, r := range rows6 {
		fmt.Printf("%10d %10.2f %10.2f %10.2f\n",
			r.CSCycles, r.NormTail[5000], r.NormTail[10000], r.NormTail[50000])
	}
	if ascii {
		var tp []textplot.Point
		for i, r := range rows6 {
			tp = append(tp, textplot.Point{X: float64(i), Y: r.NormTail[50000]})
		}
		fmt.Println(textplot.Line("norm tail @50K (log y; x = CS sweep index)", tp, 60, 10, true))
	}
}

func fig7(o umanycore.ExperimentOptions) {
	header("Figure 7: tail inflation from ICN contention (normalized to no contention)")
	fmt.Printf("%10s %10s %10s\n", "RPS", "2D mesh", "fat-tree")
	rows7 := umanycore.Fig7(o)
	var bars []textplot.Bar
	for _, r := range rows7 {
		fmt.Printf("%10d %9.2fx %9.2fx\n", r.RPS, r.MeshNorm, r.FatTreeNorm)
		bars = append(bars,
			textplot.Bar{Label: fmt.Sprintf("%dK mesh", r.RPS/1000), Value: r.MeshNorm},
			textplot.Bar{Label: fmt.Sprintf("%dK ftree", r.RPS/1000), Value: r.FatTreeNorm})
	}
	if ascii {
		fmt.Println(textplot.BarChart("", bars, 50))
	}
}

func fig8(o umanycore.ExperimentOptions) {
	header("Figure 8: common (shareable) fraction of a handler's footprint")
	fmt.Printf("%-18s %8s %8s %8s %8s\n", "group", "d-page", "d-line", "i-page", "i-line")
	for _, r := range umanycore.Fig8(o) {
		fmt.Printf("%-18s %8.3f %8.3f %8.3f %8.3f\n", r.Group, r.DPage, r.DLine, r.IPage, r.ILine)
	}
}

func fig9(o umanycore.ExperimentOptions) {
	header("Figure 9: TLB and cache hit rates for handler access streams")
	fmt.Printf("%-14s %-10s %9s\n", "class", "structure", "hit rate")
	for _, r := range umanycore.Fig9(o) {
		fmt.Printf("%-14s %-10s %9.3f\n", r.Class, r.Structure, r.HitRate)
	}
}

func endToEnd(o umanycore.ExperimentOptions) {
	rows := umanycore.EndToEnd(o)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Arch != rows[j].Arch {
			return rows[i].Arch < rows[j].Arch
		}
		if rows[i].RPS != rows[j].RPS {
			return rows[i].RPS < rows[j].RPS
		}
		return rows[i].App < rows[j].App
	})
	header("Figures 14/16/17: per-request-type latency in the mixed load (all architectures)")
	fmt.Printf("%-15s %8s %-9s %12s %12s %8s %6s\n",
		"arch", "RPS", "app", "avg [us]", "p99 [us]", "p99/avg", "util")
	for _, r := range rows {
		fmt.Printf("%-15s %8.0f %-9s %12.1f %12.1f %8.2f %6.3f\n",
			r.Arch, r.RPS, r.App, r.AvgMicros, r.TailMicros, r.TailToAvg, r.Utilization)
	}
	for _, metric := range []string{"tail", "avg"} {
		for _, red := range umanycore.Reductions(rows, metric) {
			fmt.Printf("uManycore %s reduction vs %-15s: 5K=%.1fx 10K=%.1fx 15K=%.1fx\n",
				metric, red.Baseline, red.ByLoad[5000], red.ByLoad[10000], red.ByLoad[15000])
		}
	}
	captured = append(captured, figureRows{"e2e", rows})
}

// figureSet encodes several figures' rows as one JSON object keyed by
// figure name, in run order (a map would sort the names).
type figureSet []figureRows

func (fs figureSet) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		rows, err := json.Marshal(f.rows)
		if err != nil {
			return nil, err
		}
		b = fmt.Appendf(b, "%q:%s", f.name, rows)
	}
	return append(b, '}'), nil
}

// writeRowsJSON writes rows — one figure's row slice, or a figureSet — to
// path ("-" = stdout) as indented JSON. Row fields encode in declaration
// order and any latency objects via stats.Summary's stable MarshalJSON, so
// the output is byte-identical run to run — the property the golden-output
// test and the ci.sh cold/warm diff pin down.
func writeRowsJSON(path string, rows any) error {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return cli.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(append(b, '\n'))
		return err
	})
}

func fig15(o umanycore.ExperimentOptions) {
	rows := umanycore.Fig15(o)
	sort.Slice(rows, func(i, j int) bool { return rows[i].App < rows[j].App })
	header("Figure 15: cumulative technique breakdown at 15K RPS (tail reduction vs ScaleOut)")
	fmt.Printf("%-9s %10s %12s %10s %10s\n", "app", "+villages", "+leaf-spine", "+hw-sched", "+hw-cs")
	for _, r := range rows {
		fmt.Printf("%-9s %9.2fx %11.2fx %9.2fx %9.2fx\n", r.App, r.Villages, r.LeafSpine, r.HWSched, r.HWCS)
	}
	v, l, h, c := umanycore.Fig15Average(rows)
	fmt.Printf("%-9s %9.2fx %11.2fx %9.2fx %9.2fx   (paper: 1.1x 2.3x 3.9x 7.4x)\n", "average", v, l, h, c)
}

func fig18(o umanycore.ExperimentOptions) {
	rows := umanycore.Fig18(o)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Arch != rows[j].Arch {
			return rows[i].Arch < rows[j].Arch
		}
		return rows[i].App < rows[j].App
	})
	header("Figure 18: maximum QoS-safe throughput (P99 <= 5x contention-free average)")
	fmt.Printf("%-15s %-9s %12s\n", "arch", "app", "max RPS")
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, r := range rows {
		fmt.Printf("%-15s %-9s %12.0f\n", r.Arch, r.App, r.MaxRPS)
		sums[r.Arch] += r.MaxRPS
		counts[r.Arch]++
	}
	umc := sums["uManycore"] / float64(counts["uManycore"])
	if sc := sums["ServerClass-40"] / float64(counts["ServerClass-40"]); sc > 0 {
		fmt.Printf("uManycore / ServerClass throughput: %.1fx (paper: 15.5x)\n", umc/sc)
	}
	if so := sums["ScaleOut"] / float64(counts["ScaleOut"]); so > 0 {
		fmt.Printf("uManycore / ScaleOut throughput:    %.1fx (paper: 4.3x)\n", umc/so)
	}
}

func fig19(o umanycore.ExperimentOptions) {
	rows := umanycore.Fig19(o)
	sort.Slice(rows, func(i, j int) bool { return rows[i].App < rows[j].App })
	header("Figure 19: uManycore topology sensitivity at 15K RPS (tail normalized to 8x4x32)")
	fmt.Printf("%-9s %9s %9s %9s %9s\n", "app", "8x4x32", "32x1x32", "32x2x16", "32x4x8")
	for _, r := range rows {
		fmt.Printf("%-9s %9.2f %9.2f %9.2f %9.2f\n", r.App,
			r.NormTail["8x4x32"], r.NormTail["32x1x32"], r.NormTail["32x2x16"], r.NormTail["32x4x8"])
	}
}

func fig20(o umanycore.ExperimentOptions) {
	header("Figure 20: synthetic service-time distributions, absolute P99 [us]")
	fmt.Printf("%-13s %8s %13s %11s %11s\n", "distribution", "RPS", "ServerClass", "ScaleOut", "uManycore")
	for _, r := range umanycore.Fig20(o) {
		fmt.Printf("%-13s %8.0f %13.1f %11.1f %11.1f\n",
			r.Dist, r.RPS, r.ServerClassTail, r.ScaleOutTail, r.UManycoreTail)
	}
}

func sec68(o umanycore.ExperimentOptions) {
	res := umanycore.Sec68(o)
	header("Section 6.8: iso-area comparison (128-core ServerClass vs uManycore)")
	fmt.Printf("%-9s %8s %14s %13s %9s\n", "app", "RPS", "SC-128 p99", "uMC p99", "ratio")
	for _, r := range res.Rows {
		fmt.Printf("%-9s %8.0f %14.1f %13.1f %8.2fx\n", r.App, r.RPS, r.SC128Tail, r.UMCTail, r.TailRatio)
	}
	fmt.Printf("mean tail ratio: %.2fx (paper: 7.3x)\n", res.MeanTailRatio)
	fmt.Printf("power ratio:     %.2fx (paper: 3.2x)\n", res.PowerRatio)
	fmt.Printf("area ratio:      %.2fx (iso-area by construction)\n", res.AreaRatio)
}

func fleetLB(o umanycore.ExperimentOptions) {
	rows := umanycore.FleetLB(o)
	header("Load-balancer study: coupled 4-server uManycore fleet, one 3x straggler, P99 [us]")
	fmt.Printf("%-7s %10s %10s %10s %10s %10s %10s %8s %10s\n",
		"policy", "rps/srv", "mean", "p99", "tail/avg", "completed", "rejected", "rej%", "remote")
	anyUnequal := false
	for _, r := range rows {
		fmt.Printf("%-7s %10.0f %10.1f %10.1f %10.2f %10d %10d %7.2f%%%s %9d\n",
			r.Policy, r.PerServerRPS, r.MeanMicros, r.P99Micros, r.TailToAvg,
			r.Completed, r.Rejected, 100*r.RejectRate, parityMark(r.RejectParity), r.RemoteServed)
		anyUnequal = anyUnequal || !r.RejectParity
	}
	if anyUnequal {
		fmt.Println(parityNote)
	}
	captured = append(captured, figureRows{"lb", rows})
}

func fleetGraph(o umanycore.ExperimentOptions) {
	rows := umanycore.FleetGraph(o)
	header("Service-graph study: layered DAGs placed across a coupled 4-server fleet, P99 [us]")
	fmt.Printf("%-10s %6s %7s %9s %9s %10s %10s %10s %10s %10s %8s %10s\n",
		"placement", "depth", "fanout", "services", "rps/srv", "mean", "p99", "tail/avg", "completed", "rejected", "rej%", "remote")
	for _, r := range rows {
		fmt.Printf("%-10s %6d %7d %9d %9.0f %10.1f %10.1f %10.2f %10d %10d %7.2f%% %10d\n",
			r.Placement, r.Depth, r.Fanout, r.Services, r.PerServerRPS,
			r.MeanMicros, r.P99Micros, r.TailToAvg,
			r.Completed, r.Rejected, 100*r.RejectRate, r.RemoteServed)
	}
	captured = append(captured, figureRows{"graph", rows})
}

func fleetScale(o umanycore.ExperimentOptions) {
	rows := umanycore.FleetScale(o)
	header("Fleet-scale study: coupled uManycore fleets, one 3x straggler per 4 servers, P99 [us]")
	fmt.Printf("%-7s %8s %12s %10s %10s %10s %10s %10s %8s %12s\n",
		"policy", "servers", "total rps", "mean", "p99", "tail/avg", "completed", "rejected", "rej%", "events")
	anyUnequal := false
	for _, r := range rows {
		fmt.Printf("%-7s %8d %12.0f %10.1f %10.1f %10.2f %10d %10d %7.2f%%%s %11d\n",
			r.Policy, r.Servers, r.TotalRPS, r.MeanMicros, r.P99Micros, r.TailToAvg,
			r.Completed, r.Rejected, 100*r.RejectRate, parityMark(r.RejectParity), r.EventsProcessed)
		anyUnequal = anyUnequal || !r.RejectParity
	}
	if anyUnequal {
		fmt.Println(parityNote)
	}
	captured = append(captured, figureRows{"scale", rows})
}

// parityNote is the footnote printed under a fleet table whenever some load
// column's policies responded at unequal reject rates.
const parityNote = "(* = policies at this load rejected at unequal rates; their latency columns are not apples-to-apples)"

// parityMark flags a row whose load column failed reject-rate parity.
func parityMark(equal bool) string {
	if equal {
		return " "
	}
	return "*"
}

func fleetControl(o umanycore.ExperimentOptions) {
	rows := umanycore.FleetControl(o)
	header("Closed-loop control study: retry storm vs capped backoff, hedge deadlines, autoscaler lag")
	fmt.Printf("%-8s %-12s %8s %9s %9s %8s %9s %8s %7s %6s %6s %6s %6s\n",
		"scenario", "variant", "rps/srv", "mean", "p99", "rej%", "goodput", "retries", "shed", "hedge", "won", "ups", "active")
	for _, r := range rows {
		fmt.Printf("%-8s %-12s %8.0f %9.1f %9.1f %7.2f%% %9.0f %8d %7d %6d %6d %6d %6d\n",
			r.Scenario, r.Variant, r.PerServerRPS, r.MeanMicros, r.P99Micros,
			100*r.RejectRate, r.GoodputRPS, r.Retries, r.Shed, r.Hedges, r.HedgeWins, r.ScaleUps, r.ActiveServers)
	}
	captured = append(captured, figureRows{"control", rows})
}

func whatIfFig(o umanycore.ExperimentOptions) {
	rows := umanycore.WhatIf(o)
	header("What-if causal profile: virtual stage speedups at the top load (HomeT), blame share vs actual P99 payoff")
	fmt.Printf("%-15s %-10s %7s %11s %11s %11s %8s %9s  %s\n",
		"arch", "stage", "factor", "dmean [us]", "dp99 [us]", "dp99.9[us]", "blame%", "payoff%", "top migration")
	for _, r := range rows {
		fmt.Printf("%-15s %-10s %7.2f %+11.1f %+11.1f %+11.1f %7.1f%% %8.1f%%  %s %+.1fpp\n",
			r.Arch, r.Stage, r.Factor, r.DMeanMicros, r.DP99Micros, r.DP999Micros,
			100*r.BlameShare, 100*r.PayoffP99, r.TopMover, 100*r.TopMoverDeltaShare)
	}
	captured = append(captured, figureRows{"whatif", rows})
}

func powerTable() {
	header("Section 5 / 6.8: package power and area (CACTI + McPAT stand-in)")
	fmt.Printf("%-16s %10s %12s\n", "package", "power [W]", "area [mm^2]")
	for _, name := range []string{"uManycore", "ScaleOut", "ServerClass-40", "ServerClass-128"} {
		fmt.Printf("%-16s %10.1f %12.1f\n", name, umanycore.PackagePower(name), umanycore.PackageArea(name))
	}
}
