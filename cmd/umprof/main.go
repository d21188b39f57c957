// Command umprof runs one traced simulation and prints the paper-style
// tail-blame breakdown: for the slowest fraction of requests, where their
// latency went — queueing, scheduling, context switches, memory stalls, RPC
// processing, service compute, storage, and network transfer — attributed by
// exact critical-path extraction through each request's span tree, so the
// per-stage sums reconcile with the measured end-to-end latencies to the
// picosecond.
//
// With -trace FILE the synthetic arrival process is replaced by an external
// trace replay (see internal/svcgraph): each CSV record becomes one request,
// typed by its root service and compute-scaled by its recorded demand, so
// `umtrace -csv > t.csv && umprof -trace t.csv` closes the loop from trace
// generation to tail blame.
//
// Examples:
//
//	umprof -arch serverclass -cores 40 -app CPost -rps 15000
//	umprof -arch umanycore -mix -rps 20000 -top 5
//	umprof -app HomeT -rps 12000 -chrome-trace out.json -spans spans.csv
//	umprof -servers 10 -rps 100000 -json
//	umtrace -requests 2000 -csv > t.csv && umprof -trace t.csv -servers 4 -rps 40000
//	umprof -whatif -app HomeT -rps 12000
//	umprof -whatif -whatif-stages rpc-proc,storage -whatif-factors 0.5,0 -json
//	umprof -servers 16 -lb p2c -rps 128000 -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"umanycore"
	"umanycore/internal/cli"
	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/stats"
	"umanycore/internal/svcgraph"
	"umanycore/internal/whatif"
)

func main() {
	arch := flag.String("arch", "umanycore", "architecture: umanycore | scaleout | serverclass")
	cores := flag.Int("cores", 40, "ServerClass core count")
	appName := flag.String("app", "CPost", "application name or synthetic:<dist>:<mean_us>:<blocks>")
	mix := flag.Bool("mix", false, "drive the full SocialNetwork request mix")
	rps := flag.Float64("rps", 15000, "offered load (requests/second)")
	duration := flag.Duration("duration", 400*time.Millisecond, "arrival window (simulated)")
	warmup := flag.Duration("warmup", 80*time.Millisecond, "measurement warmup (simulated)")
	seed := flag.Int64("seed", 1, "simulation seed")
	servers := flag.Int("servers", 0, "run a coupled fleet of N servers (0 = single machine); traces merge across servers")
	lb := flag.String("lb", "", "fleet load-balancer policy: rr | rand | least | p2c (default rr; needs -servers)")
	skew := flag.String("skew", "", "comma-separated per-server slowdown factors, e.g. 1,1,2 (needs -servers)")
	top := flag.Float64("top", 1, "tail fraction to analyze, in percent (1 = slowest 1%)")
	traceIn := flag.String("trace", "", "replay an external trace CSV (umtrace -csv wire format) instead of synthetic arrivals; -rps rescales the trace to that mean rate when given explicitly")
	traceOut := flag.String("chrome-trace", "", "also write a Chrome/Perfetto trace-event JSON to FILE (- = stdout)")
	spansOut := flag.String("spans", "", "also write every span as CSV to FILE (- = stdout)")
	metricsOut := flag.String("metrics", "", "also write the metrics snapshot as CSV to FILE (- = stdout)")
	jsonOut := flag.Bool("json", false, "print the report as JSON instead of a table")
	fabric := flag.Bool("fabric", false, "also report the PDES fabric's self-observability (needs -servers and 2+ servers)")
	exemplarsOut := flag.String("exemplars", "", "write the K slowest stitched request trees as JSON to FILE (- = stdout)")
	exemplarsTrace := flag.String("exemplars-trace", "", "write the exemplar trees as Chrome/Perfetto trace-event JSON to FILE (- = stdout)")
	exemplarsK := flag.Int("exemplars-k", 3, "how many tail exemplars to select")
	sample := flag.Duration("sample", 0, "streaming-telemetry sampling interval (simulated; 0 = off unless -series set)")
	seriesOut := flag.String("series", "", "write the telemetry time series as CSV to FILE (- = stdout)")
	serve := flag.String("serve", "", "serve live /metrics, /healthz, /progress and pprof on this address during the run (e.g. :9090)")
	whatIf := flag.Bool("whatif", false, "causal profiling: run the paired-seed what-if grid of virtual stage speedups instead of one report")
	whatIfStages := flag.String("whatif-stages", "", "comma-separated stages to virtually accelerate (default: sched,ctxswitch,mem-stall,rpc-proc,storage,net)")
	whatIfFactors := flag.String("whatif-factors", "", "comma-separated stage cost factors in [0,1], 0 = stage eliminated (default: 0.9,0.75,0.5,0)")
	retries := flag.Int("retries", 0, "retry a rejected root up to N times with capped exponential backoff (needs -servers)")
	retryBase := flag.Duration("retry-base", 100*time.Microsecond, "first retry backoff (doubles per attempt; needs -retries)")
	retryCap := flag.Duration("retry-cap", 800*time.Microsecond, "backoff ceiling (needs -retries)")
	retryJitter := flag.Float64("retry-jitter", 0.5, "subtract up to this fraction of each backoff, uniformly at random (needs -retries)")
	hedge := flag.Duration("hedge", 0, "duplicate a root to a second server after this deadline, first response wins (0 = off; needs -servers)")
	shedProb := flag.Float64("shed-prob", 0, "reject probability at the dispatcher while the slo.burn watchdog fires (0 = off; needs -servers and -shed-slo)")
	shedSLO := flag.Float64("shed-slo", 0, "per-request P99 objective in microseconds for the shedding watchdog (needs -shed-prob)")
	scaleMin := flag.Int("scale-min", 0, "autoscale: start with N active servers and grow on windowed-p99 pressure (0 = whole fleet active; needs -servers and -scale-p99)")
	scaleP99 := flag.Float64("scale-p99", 0, "autoscaler P99 target in microseconds (needs -scale-min)")
	scaleLag := flag.Duration("scale-lag", 0, "cold-start lag before a scaled-up server becomes routable (needs -scale-min)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to FILE")
	flag.Parse()

	if err := cli.StartCPUProfile(*cpuProfile); err != nil {
		fatal(err)
	}
	defer func() {
		if err := cli.StopCPUProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "umprof:", err)
		}
	}()

	if !(*top > 0 && *top <= 100) {
		fatal(fmt.Errorf("-top %v is out of range: want a tail percentage in (0, 100]", *top))
	}
	if err := cli.CheckRunWindow(*rps, *duration, *warmup); err != nil {
		fatal(err)
	}
	// Bad control values exit 2 even when they enable no loop.
	ctl := &umanycore.ControlConfig{
		MaxRetries:     *retries,
		RetryBase:      cli.SimTime(*retryBase),
		RetryCap:       cli.SimTime(*retryCap),
		RetryJitter:    *retryJitter,
		HedgeAfter:     cli.SimTime(*hedge),
		ShedProb:       *shedProb,
		ShedSLOMicros:  *shedSLO,
		ScaleMin:       *scaleMin,
		ScaleP99Micros: *scaleP99,
		ScaleLag:       cli.SimTime(*scaleLag),
	}
	if err := ctl.Validate(); err != nil {
		fatal(err)
	}
	if !ctl.Enabled() {
		ctl = nil
	}
	if ctl != nil && *servers < 2 {
		fatal(fmt.Errorf("control flags (-retries/-hedge/-shed-prob/-scale-min) need a coupled fleet (-servers 2 or more)"))
	}
	if ctl != nil && *whatIf {
		fatal(fmt.Errorf("control flags are not supported with -whatif"))
	}
	if *fabric && *whatIf {
		fatal(fmt.Errorf("-fabric is not supported with -whatif (the what-if grid prints no per-run fabric report)"))
	}
	if *servers < 0 {
		fatal(fmt.Errorf("-servers %d is out of range: want 0 (one machine) or a fleet size", *servers))
	}
	if *servers == 0 {
		// Fleet flags would otherwise be ignored by the single-machine run.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "lb", "skew":
				fatal(fmt.Errorf("-%s needs a fleet (-servers 1 or more)", f.Name))
			}
		})
	}
	if *fabric && *servers < 2 {
		fatal(fmt.Errorf("-fabric needs a coupled multi-server fleet (-servers 2 or more)"))
	}
	if *exemplarsK < 1 {
		fatal(fmt.Errorf("-exemplars-k %d is out of range: want at least 1 exemplar", *exemplarsK))
	}
	cfg, err := cli.Arch(*arch, *cores)
	if err != nil {
		fatal(err)
	}
	app, err := cli.App(*appName)
	if err != nil {
		fatal(err)
	}
	var replay *svcgraph.Replay
	if *traceIn != "" {
		if *whatIf {
			fatal(fmt.Errorf("-trace is not supported with -whatif (the what-if grid re-simulates synthetic arrivals)"))
		}
		// -rps only rescales the replay when given explicitly; the default
		// otherwise replays a 5-column trace verbatim at its recorded times.
		rpsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "rps" {
				rpsSet = true
			}
		})
		replayRPS := 0.0
		if rpsSet {
			replayRPS = *rps
		}
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		tr, err := svcgraph.ParseTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if replay, err = tr.Bind(app, replayRPS); err != nil {
			fatal(err)
		}
	}
	fcli := fleetCLI{servers: *servers, lb: *lb, skew: *skew}
	rc := cli.RunConfig(app, *mix, *rps, *duration, *warmup, *seed)
	if *whatIf {
		runWhatIf(cfg, rc, whatIfCLI{
			stages: *whatIfStages, factors: *whatIfFactors,
			fleetCLI: fcli, top: *top, json: *jsonOut,
		})
		return
	}
	rc.Obs = umanycore.DefaultObs()
	rc.Replay = replay
	if *sample > 0 || *seriesOut != "" {
		rc.Telemetry = &umanycore.TelemetryOptions{}
		if *sample > 0 {
			rc.Telemetry.Interval = cli.SimTime(*sample)
		}
	}
	if err := cli.Serve("umprof", *serve); err != nil {
		fatal(err)
	}

	var orun *umanycore.ObsRun
	var trun *umanycore.TelemetryRun
	var latency umanycore.Summary
	var label string
	var fres *fleet.Result
	var tc *traceCounts
	if *servers > 0 {
		fc := buildFleet(cfg, fcli, ctl, app, rc)
		fres = umanycore.RunFleet(fc, app, *rps, rc, *seed)
		orun, trun, latency = fres.Obs, fres.Telemetry, fres.Latency
		label = fmt.Sprintf("%s x%d servers (%s)", fres.Machine, *servers, fres.Balancer)
		if replay != nil {
			tc = &traceCounts{
				submitted: fres.Submitted, completed: fres.Completed,
				rejected: fres.Rejected, unfinished: fres.Unfinished,
			}
		}
	} else {
		res := umanycore.Run(cfg, rc)
		orun, trun, latency = res.Obs, res.Telemetry, res.Latency
		label = res.Machine
		if replay != nil {
			tc = &traceCounts{
				submitted: res.Submitted, completed: res.Completed,
				rejected: res.Rejected, unfinished: res.Unfinished,
			}
		}
	}
	if tc != nil {
		tc.records = replay.Records
		tc.replayed = replay.Replayed(rc.Normalized().Duration)
	}
	if trun != nil {
		cli.Publish(trun)
	}

	rep := umanycore.AnalyzeTail(orun.Spans, *top/100)

	svcName := cli.ServiceName(app.Catalog)
	if *traceOut != "" {
		if err := cli.WriteFile(*traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, orun.Spans, svcName)
		}); err != nil {
			fatal(err)
		}
	}
	if *exemplarsOut != "" || *exemplarsTrace != "" {
		// Tail exemplars: the K slowest stitched trees, selected by virtual
		// time only, so the file is deterministic.
		xs := obs.Exemplars(orun.Spans, *exemplarsK)
		if *exemplarsOut != "" {
			if err := cli.WriteExemplars(*exemplarsOut, xs); err != nil {
				fatal(err)
			}
		}
		if *exemplarsTrace != "" {
			if err := cli.WriteFile(*exemplarsTrace, func(w io.Writer) error {
				return obs.WriteChromeTrace(w, obs.ExemplarSpans(xs), svcName)
			}); err != nil {
				fatal(err)
			}
		}
	}
	if *spansOut != "" {
		if err := cli.WriteFile(*spansOut, func(w io.Writer) error {
			return obs.WriteSpansCSV(w, orun.Spans)
		}); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := cli.WriteFile(*metricsOut, func(w io.Writer) error {
			return obs.WriteMetricsCSV(w, orun.Metrics)
		}); err != nil {
			fatal(err)
		}
	}
	if *seriesOut != "" {
		if trun == nil {
			fatal(fmt.Errorf("-series produced no telemetry"))
		}
		if err := cli.WriteFile(*seriesOut, trun.WriteCSV); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		printJSON(label, app.Name, *rps, duration.Seconds(), latency, rep, tc, fres, *fabric)
		return
	}
	fmt.Printf("machine : %s\n", label)
	fmt.Printf("workload: %s @ %.0f RPS%s\n", app.Name, *rps, cli.MixTag(*mix))
	fmt.Printf("latency : %s [us]\n", latency)
	if tc != nil {
		// Per-record completion closes the replay loop: every parsed record
		// accounted for as replayed-in-window, completed, rejected or still
		// in flight at drain end.
		fmt.Printf("trace   : %d records, %d replayed in window; %d completed (%.1f%% of records), %d rejected, %d unfinished\n",
			tc.records, tc.replayed, tc.completed,
			100*float64(tc.completed)/float64(tc.records), tc.rejected, tc.unfinished)
	}
	if fres != nil {
		// The latency line above covers completed requests only; the goodput
		// line keeps heavy rejection from masquerading as speed.
		fmt.Printf("goodput : %d completed + %d rejected (reject rate %.2f%%) = %.0f good RPS\n",
			fres.Completed, fres.Rejected,
			100*rejRate(fres.Completed, fres.Rejected),
			float64(fres.Completed)/duration.Seconds())
		if c := fres.Control; c != nil {
			fmt.Printf("control : client %s [us]\n", c.Latency)
			fmt.Printf("          %d submitted: %d completed, %d rejected (reject rate %.2f%%), %d unfinished\n",
				c.Submitted, c.Completed, c.Rejected, 100*c.RejectRate(), c.Unfinished)
			fmt.Printf("          %d retries, %d hedges (%d won, %d wasted), %d shed, %d scale-ups (%d servers active)\n",
				c.Retries, c.Hedges, c.HedgeWins, c.HedgeWaste, c.Shed, c.ScaleUps, c.ActiveServers)
		}
	}
	fmt.Println()
	rep.WriteTable(os.Stdout)
	// The traced p99 comes from the span trees alone; the measured p99 from
	// the latency sample. Agreement is the layer's end-to-end cross-check.
	fmt.Printf("\nreconcile: traced p99 %.1fus vs measured p99 %.1fus (diff %+.2f%%)\n",
		rep.P99.Micros(), latency.P99, pctDiff(rep.P99.Micros(), latency.P99))
	if *fabric {
		fmt.Println()
		writeFabricTable(fres)
	}
}

// traceCounts summarizes a -trace replay: how many parsed records arrived
// inside the window and what happened to each submitted root.
type traceCounts struct {
	records, replayed              int
	submitted, completed, rejected uint64
	unfinished                     int64
}

// fleetCLI carries the -servers flag subset out of main.
type fleetCLI struct {
	servers  int
	lb, skew string
}

// buildFleet assembles the -servers fleet around cfg and checks that it can
// run app under rc, exiting 2 with the cause before any simulation starts.
func buildFleet(cfg umanycore.Config, cli fleetCLI, ctl *umanycore.ControlConfig, app *umanycore.App, rc umanycore.RunConfig) umanycore.FleetConfig {
	fc := umanycore.DefaultFleet(cfg)
	fc.Servers = cli.servers
	fc.LB = cli.lb
	if cli.skew != "" {
		slow, err := parseSkew(cli.skew)
		if err != nil {
			fatal(err)
		}
		fc.Slowdown = slow
	}
	fc.Control = ctl
	if err := fc.Validate(app, rc); err != nil {
		fatal(err)
	}
	return fc
}

// whatIfCLI carries the -whatif flag subset out of main.
type whatIfCLI struct {
	fleetCLI
	stages, factors string
	top             float64
	json            bool
}

// runWhatIf drives the causal-profiling grid (internal/whatif) on the run
// rc describes: the same workload re-simulated under virtual per-stage
// speedups, reporting each stage's blame share next to the tail improvement
// actually bought. Output is fully deterministic.
func runWhatIf(cfg umanycore.Config, rc umanycore.RunConfig, wcli whatIfCLI) {
	stages, err := parseWhatIfStages(wcli.stages)
	if err != nil {
		fatal(err)
	}
	factors, err := parseWhatIfFactors(wcli.factors)
	if err != nil {
		fatal(err)
	}
	tg := whatif.Target{App: rc.App, RPS: rc.RPS, Seed: rc.Seed, RC: rc}
	if wcli.servers > 0 {
		fc := buildFleet(cfg, wcli.fleetCLI, nil, rc.App, rc)
		tg.Fleet = &fc
	} else {
		tg.Machine = cfg
	}
	rep, err := whatif.Run(tg, whatif.Options{
		Stages:  stages,
		Factors: factors,
		TopFrac: wcli.top / 100,
	})
	if err != nil {
		fatal(err)
	}
	if wcli.json {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	rep.WriteTable(os.Stdout)
}

// parseWhatIfStages resolves -whatif-stages names against the accelerable
// stage set ("" = all of them).
func parseWhatIfStages(s string) ([]obs.Stage, error) {
	if s == "" {
		return nil, nil
	}
	accelerable := machine.SpeedupStages()
	var out []obs.Stage
	for _, p := range strings.Split(s, ",") {
		name := strings.TrimSpace(p)
		found := false
		for _, st := range accelerable {
			if strings.EqualFold(name, st.String()) {
				out = append(out, st)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown what-if stage %q (want one of %v)", name, accelerable)
		}
	}
	return out, nil
}

// parseWhatIfFactors parses the -whatif-factors ladder ("" = default);
// whatif.Run checks the range.
func parseWhatIfFactors(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, p := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad what-if factor %q: %v", p, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// writeFabricTable prints the PDES fabric's self-observability report: the
// deterministic window/message aggregates, then the per-shard execution
// split and the run's wall cost.
func writeFabricTable(fres *fleet.Result) {
	st := fres.Fabric
	fmt.Printf("pdes fabric: %d shards (dispatcher + servers), lookahead %.3fus\n",
		st.Shards, st.Lookahead.Micros())
	fmt.Printf("  windows    : %d rounds, %d events (%.1f events/window)\n",
		st.Rounds, st.WindowEvents, st.EventsPerWindow())
	fmt.Printf("  lookahead  : %.1f%% utilized (mean window width %.3fus)\n",
		100*st.LookaheadUtilization(), meanWindowUS(st))
	fmt.Printf("  messages   : %d sent, %d delivered\n", st.MessagesSent, st.MessagesDelivered)
	fmt.Println("  per shard  :")
	for i := range st.ShardWindows {
		name := fmt.Sprintf("server %d", i-1)
		if i == 0 {
			name = "dispatcher"
		}
		fmt.Printf("    %-10s %10d windows %12d events\n", name, st.ShardWindows[i], st.ShardEvents[i])
	}
	fmt.Printf("  run        : %d events total, %.3fs wall\n", fres.EventsProcessed, fres.WallSeconds)
}

func meanWindowUS(st *umanycore.FabricStats) float64 {
	if st.Rounds == 0 {
		return 0
	}
	return st.AdvanceSum.Micros() / float64(st.Rounds)
}

// printJSON emits the report as one stable-order JSON object built with
// stats.JSONObject — the fixed-field-order encoder shared with
// umsim/umbench; the latency field uses stats.Summary's marshaling. Trace
// replays append a "trace" section (per-record completion accounting), fleet
// runs a "fleet" section (goodput accounting, events, wall cost, fabric
// rounds), controlled runs a "control" section with the client-level
// feedback-loop counters, and -fabric the full deterministic fabric
// aggregates. Every field except fleet.wall_seconds is deterministic.
func printJSON(machineName, appName string, rps, durationSec float64, latency umanycore.Summary, rep *umanycore.BlameReport, tc *traceCounts, fres *fleet.Result, fabric bool) {
	lat, err := latency.MarshalJSON()
	if err != nil {
		fatal(err)
	}
	var o stats.JSONObject
	o.Str("machine", machineName).
		Str("app", appName).
		Float("rps", rps).
		Raw("latency", lat).
		Obj("tail", func(t *stats.JSONObject) {
			t.Float("top_frac", rep.TopFrac).
				Int("traced", int64(rep.Total)).
				Int("analyzed", int64(len(rep.Requests))).
				FloatFixed("cutoff_us", rep.Cutoff.Micros(), 3).
				FloatFixed("traced_p99_us", rep.P99.Micros(), 3).
				Obj("by_stage_us", func(s *stats.JSONObject) {
					for st := obs.Stage(0); st < obs.NumStages; st++ {
						if d := rep.ByStage[st]; d != 0 {
							s.FloatFixed(st.String(), d.Micros(), 3)
						}
					}
				}).
				Int("residual_ps", int64(rep.Residual()))
			if len(rep.ByServerStage) > 1 {
				t.Obj("by_server_stage_us", func(sv *stats.JSONObject) {
					for srv := range rep.ByServerStage {
						by := rep.ByServerStage[srv]
						sv.Obj("s"+strconv.Itoa(srv), func(b *stats.JSONObject) {
							for st := obs.Stage(0); st < obs.NumStages; st++ {
								if d := by[st]; d != 0 {
									b.FloatFixed(st.String(), d.Micros(), 3)
								}
							}
						})
					}
				})
			}
		})
	if tc != nil {
		o.Obj("trace", func(to *stats.JSONObject) {
			to.Int("records", int64(tc.records)).
				Int("replayed", int64(tc.replayed)).
				Int("submitted", int64(tc.submitted)).
				Int("completed", int64(tc.completed)).
				Int("rejected", int64(tc.rejected)).
				Int("unfinished", tc.unfinished)
		})
	}
	if fres != nil {
		o.Obj("fleet", func(fo *stats.JSONObject) {
			fo.Int("completed", int64(fres.Completed)).
				Int("rejected", int64(fres.Rejected)).
				FloatFixed("reject_rate", rejRate(fres.Completed, fres.Rejected), 6).
				Float("goodput_rps", float64(fres.Completed)/durationSec).
				Int("events_processed", int64(fres.EventsProcessed)).
				Float("wall_seconds", fres.WallSeconds)
			if fres.Fabric != nil {
				fo.Int("fabric_rounds", int64(fres.Fabric.Rounds))
			}
		})
		if c := fres.Control; c != nil {
			clat, err := c.Latency.MarshalJSON()
			if err != nil {
				fatal(err)
			}
			o.Obj("control", func(co *stats.JSONObject) {
				co.Int("submitted", int64(c.Submitted)).
					Int("completed", int64(c.Completed)).
					Int("rejected", int64(c.Rejected)).
					Int("unfinished", int64(c.Unfinished)).
					FloatFixed("reject_rate", c.RejectRate(), 6).
					Float("goodput_rps", float64(c.Completed)/durationSec).
					Int("retries", int64(c.Retries)).
					Int("shed", int64(c.Shed)).
					Int("attempts", int64(c.Attempts)).
					Int("hedges", int64(c.Hedges)).
					Int("hedge_wins", int64(c.HedgeWins)).
					Int("hedge_waste", int64(c.HedgeWaste)).
					Int("burn_edges", int64(c.BurnEdges)).
					Int("scale_ups", int64(c.ScaleUps)).
					Int("scale_downs", int64(c.ScaleDowns)).
					Int("active_servers", int64(c.ActiveServers)).
					Raw("latency", clat)
			})
		}
		if fabric && fres.Fabric != nil {
			st := fres.Fabric
			o.Obj("fabric", func(fo *stats.JSONObject) {
				fo.Int("shards", int64(st.Shards)).
					FloatFixed("lookahead_us", st.Lookahead.Micros(), 3).
					Int("rounds", int64(st.Rounds)).
					Int("messages_sent", int64(st.MessagesSent)).
					Int("messages_delivered", int64(st.MessagesDelivered)).
					Int("window_events", int64(st.WindowEvents)).
					FloatFixed("events_per_window", st.EventsPerWindow(), 3).
					FloatFixed("lookahead_utilization", st.LookaheadUtilization(), 6)
			})
		}
	}
	os.Stdout.Write(o.Bytes())
	os.Stdout.WriteString("\n")
}

// rejRate is rejected over responded — the goodput complement.
func rejRate(completed, rejected uint64) float64 {
	if resp := completed + rejected; resp > 0 {
		return float64(rejected) / float64(resp)
	}
	return 0
}

// parseSkew parses the -skew list of per-server slowdown factors.
func parseSkew(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad slowdown factor %q (want positive numbers, e.g. -skew 1,1,2)", p)
		}
		out = append(out, f)
	}
	return out, nil
}

func pctDiff(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a - b) / b
}

func fatal(err error) { cli.Fatal("umprof", err) }
