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
	"os"
	"strconv"
	"strings"
	"time"

	"umanycore"
	"umanycore/internal/cpuprof"
	"umanycore/internal/fleet"
	"umanycore/internal/lookup"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/svcgraph"
	"umanycore/internal/telemetry"
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
	shardWorkers := flag.Int("shard-workers", 0, "coupled-fleet PDES execution mode: >= 0 gives every server its own engine, -1 puts every shard on one shared engine (the reference); both run the same window loop and give identical results (needs -servers)")
	top := flag.Float64("top", 1, "tail fraction to analyze, in percent (1 = slowest 1%)")
	traceIn := flag.String("trace", "", "replay an external trace CSV (umtrace -csv wire format) instead of synthetic arrivals; -rps rescales the trace to that mean rate when given explicitly")
	traceOut := flag.String("chrome-trace", "", "also write a Chrome/Perfetto trace-event JSON to FILE")
	spansOut := flag.String("spans", "", "also write every span as CSV to FILE")
	metricsOut := flag.String("metrics", "", "also write the metrics snapshot as CSV to FILE")
	jsonOut := flag.Bool("json", false, "print the report as JSON instead of a table")
	fabric := flag.Bool("fabric", false, "also report the PDES fabric's self-observability (needs -servers and 2+ servers)")
	exemplarsOut := flag.String("exemplars", "", "write the K slowest stitched request trees as JSON to FILE (- = stdout)")
	exemplarsTrace := flag.String("exemplars-trace", "", "write the exemplar trees as Chrome/Perfetto trace-event JSON to FILE")
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

	if err := cpuprof.Start(*cpuProfile); err != nil {
		fatal(err)
	}
	defer func() {
		if err := cpuprof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "umprof:", err)
		}
	}()

	switch {
	case *top <= 0 || *top > 100:
		fatal(fmt.Errorf("-top %v is out of range: want a tail percentage in (0, 100]", *top))
	case *rps <= 0:
		fatal(fmt.Errorf("-rps %v is out of range: want a positive offered load", *rps))
	case *duration <= 0 || *warmup < 0:
		fatal(fmt.Errorf("bad run window: -duration must be positive and -warmup non-negative (got %v / %v)", *duration, *warmup))
	}
	ctl, err := buildControl(controlCLI{
		retries: *retries, retryBase: *retryBase, retryCap: *retryCap, retryJitter: *retryJitter,
		hedge: *hedge, shedProb: *shedProb, shedSLO: *shedSLO,
		scaleMin: *scaleMin, scaleP99: *scaleP99, scaleLag: *scaleLag,
	})
	if err != nil {
		fatal(err)
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
			case "lb", "skew", "shard-workers":
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
	cfg, err := lookup.Arch(*arch, *cores)
	if err != nil {
		fatal(err)
	}
	app, err := lookup.App(*appName)
	if err != nil {
		fatal(err)
	}
	var replay *svcgraph.Replay
	if *traceIn != "" {
		if *whatIf {
			fatal(fmt.Errorf("-trace is not supported with -whatif (the what-if grid re-simulates synthetic arrivals)"))
		}
		if ctl != nil {
			fatal(fmt.Errorf("-trace is not supported with control flags (arrivals are the trace's, not the controller's)"))
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
	fcli := fleetCLI{servers: *servers, lb: *lb, skew: *skew, shardWorkers: *shardWorkers}
	if *whatIf {
		runWhatIf(cfg, app, whatIfCLI{
			stages: *whatIfStages, factors: *whatIfFactors,
			mix: *mix, rps: *rps, duration: *duration, warmup: *warmup,
			seed: *seed, fleetCLI: fcli, top: *top, json: *jsonOut,
		})
		return
	}
	rc := umanycore.RunConfig{
		App:      app,
		RPS:      *rps,
		Duration: sim.Time(duration.Nanoseconds()) * umanycore.Nanosecond,
		Warmup:   sim.Time(warmup.Nanoseconds()) * umanycore.Nanosecond,
		Seed:     *seed,
		Obs:      umanycore.DefaultObs(),
		Replay:   replay,
	}
	if *mix {
		rc.Mix = umanycore.SocialNetworkMix()
	}
	if *sample > 0 || *seriesOut != "" {
		topts := &umanycore.TelemetryOptions{}
		if *sample > 0 {
			topts.Interval = sim.Time(sample.Nanoseconds()) * umanycore.Nanosecond
		}
		rc.Telemetry = topts
	}
	if *serve != "" {
		addr, err := telemetry.ParseServeAddr(*serve)
		if err != nil {
			fatal(err)
		}
		srv, err := telemetry.Serve(addr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "umprof: serving /metrics /healthz /progress /series.csv /debug/pprof on %s\n", srv.Addr)
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
		telemetry.Publish(trun)
	}

	rep := umanycore.AnalyzeTail(orun.Spans, *top/100)

	svcName := func(svc int16) string {
		catalog := app.Catalog
		if int(svc) >= 0 && int(svc) < len(catalog.Services) {
			return catalog.Service(int(svc)).Name
		}
		return strconv.Itoa(int(svc))
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(f *os.File) error {
			return obs.WriteChromeTrace(f, orun.Spans, svcName)
		}); err != nil {
			fatal(err)
		}
	}
	if *exemplarsOut != "" || *exemplarsTrace != "" {
		// Tail exemplars: the K slowest stitched trees, selected by virtual
		// time only — byte-identical for every -shard-workers value.
		xs := obs.Exemplars(orun.Spans, *exemplarsK)
		if *exemplarsOut == "-" {
			if err := obs.WriteExemplarsJSON(os.Stdout, xs); err != nil {
				fatal(err)
			}
			os.Stdout.WriteString("\n")
		} else if *exemplarsOut != "" {
			if err := writeFile(*exemplarsOut, func(f *os.File) error {
				return obs.WriteExemplarsJSON(f, xs)
			}); err != nil {
				fatal(err)
			}
		}
		if *exemplarsTrace != "" {
			if err := writeFile(*exemplarsTrace, func(f *os.File) error {
				return obs.WriteChromeTrace(f, obs.ExemplarSpans(xs), svcName)
			}); err != nil {
				fatal(err)
			}
		}
	}
	if *spansOut != "" {
		if err := writeFile(*spansOut, func(f *os.File) error {
			return obs.WriteSpansCSV(f, orun.Spans)
		}); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, func(f *os.File) error {
			return obs.WriteMetricsCSV(f, orun.Metrics)
		}); err != nil {
			fatal(err)
		}
	}
	if *seriesOut != "" {
		if trun == nil {
			fatal(fmt.Errorf("-series produced no telemetry"))
		}
		if *seriesOut == "-" {
			if err := trun.WriteCSV(os.Stdout); err != nil {
				fatal(err)
			}
		} else if err := writeFile(*seriesOut, func(f *os.File) error {
			return trun.WriteCSV(f)
		}); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		printJSON(label, app.Name, *rps, duration.Seconds(), latency, rep, tc, fres, *fabric)
		return
	}
	fmt.Printf("machine : %s\n", label)
	fmt.Printf("workload: %s @ %.0f RPS%s\n", app.Name, *rps, mixTag(*mix))
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
	servers      int
	lb, skew     string
	shardWorkers int
}

// buildFleet assembles the -servers fleet around cfg and checks that it can
// run app under rc, exiting 2 with the cause before any simulation starts.
func buildFleet(cfg umanycore.Config, cli fleetCLI, ctl *umanycore.ControlConfig, app *umanycore.App, rc umanycore.RunConfig) umanycore.FleetConfig {
	fc := umanycore.DefaultFleet(cfg)
	fc.Servers = cli.servers
	fc.LB = cli.lb
	fc.ShardWorkers = cli.shardWorkers
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
	stages, factors  string
	mix              bool
	rps              float64
	duration, warmup time.Duration
	seed             int64
	top              float64
	json             bool
}

// runWhatIf drives the causal-profiling grid (internal/whatif): the same
// workload re-simulated under virtual per-stage speedups, reporting each
// stage's blame share next to the tail improvement actually bought. Output
// is fully deterministic — byte-identical for any -shard-workers value.
func runWhatIf(cfg umanycore.Config, app *umanycore.App, cli whatIfCLI) {
	stages, err := parseWhatIfStages(cli.stages)
	if err != nil {
		fatal(err)
	}
	factors, err := parseWhatIfFactors(cli.factors)
	if err != nil {
		fatal(err)
	}
	tg := whatif.Target{
		App:  app,
		RPS:  cli.rps,
		Seed: cli.seed,
		RC: umanycore.RunConfig{
			Duration: sim.Time(cli.duration.Nanoseconds()) * umanycore.Nanosecond,
			Warmup:   sim.Time(cli.warmup.Nanoseconds()) * umanycore.Nanosecond,
		},
	}
	if cli.mix {
		tg.RC.Mix = umanycore.SocialNetworkMix()
	}
	if cli.servers > 0 {
		fc := buildFleet(cfg, cli.fleetCLI, nil, app, tg.RC)
		tg.Fleet = &fc
	} else {
		tg.Machine = cfg
	}
	rep, err := whatif.Run(tg, whatif.Options{
		Stages:  stages,
		Factors: factors,
		TopFrac: cli.top / 100,
	})
	if err != nil {
		fatal(err)
	}
	if cli.json {
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

// parseWhatIfFactors parses the -whatif-factors ladder ("" = default).
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
		if f < 0 {
			return nil, fmt.Errorf("-whatif-factors %v is negative: factors are stage cost multipliers in [0, 1]", f)
		}
		if f > 1 {
			return nil, fmt.Errorf("-whatif-factors %v is out of range: a factor above 1 would slow the stage down, not speed it up (want [0, 1])", f)
		}
		out = append(out, f)
	}
	return out, nil
}

// writeFabricTable prints the PDES fabric's self-observability report: the
// deterministic window/message aggregates, then the per-shard execution
// split (per-server engines only) and the run's wall cost.
func writeFabricTable(fres *fleet.Result) {
	st := fres.Fabric
	fmt.Printf("pdes fabric: %d shards (dispatcher + servers), lookahead %.3fus\n",
		st.Shards, st.Lookahead.Micros())
	fmt.Printf("  windows    : %d rounds, %d events (%.1f events/window)\n",
		st.Rounds, st.WindowEvents, st.EventsPerWindow())
	fmt.Printf("  lookahead  : %.1f%% utilized (mean window width %.3fus)\n",
		100*st.LookaheadUtilization(), meanWindowUS(st))
	fmt.Printf("  messages   : %d sent, %d delivered\n", st.MessagesSent, st.MessagesDelivered)
	if len(st.ShardWindows) > 0 {
		fmt.Println("  per shard  :")
		for i := range st.ShardWindows {
			name := fmt.Sprintf("server %d", i-1)
			if i == 0 {
				name = "dispatcher"
			}
			fmt.Printf("    %-10s %10d windows %12d events\n", name, st.ShardWindows[i], st.ShardEvents[i])
		}
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

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// controlCLI carries the control-loop flag subset out of main.
type controlCLI struct {
	retries                        int
	retryBase, retryCap, hedge     time.Duration
	retryJitter, shedProb, shedSLO float64
	scaleMin                       int
	scaleP99                       float64
	scaleLag                       time.Duration
}

// buildControl turns the control flags into a ControlConfig, or nil when no
// loop is enabled. Every bound is checked here so bad values exit 2 at
// parse time instead of panicking mid-simulation.
func buildControl(cli controlCLI) (*umanycore.ControlConfig, error) {
	switch {
	case cli.retries < 0:
		return nil, fmt.Errorf("-retries %d is out of range: want a non-negative retry budget", cli.retries)
	case cli.retryBase < 0 || cli.retryCap < 0 || cli.hedge < 0 || cli.scaleLag < 0:
		return nil, fmt.Errorf("negative control duration: -retry-base/-retry-cap/-hedge/-scale-lag must be >= 0")
	case cli.retryJitter < 0 || cli.retryJitter > 1:
		return nil, fmt.Errorf("-retry-jitter %v is out of range: want a fraction in [0, 1]", cli.retryJitter)
	case cli.shedProb < 0 || cli.shedProb > 1:
		return nil, fmt.Errorf("-shed-prob %v is out of range: want a probability in [0, 1]", cli.shedProb)
	case cli.shedProb > 0 && cli.shedSLO <= 0:
		return nil, fmt.Errorf("-shed-prob needs a positive -shed-slo objective (got %v)", cli.shedSLO)
	case cli.scaleMin < 0:
		return nil, fmt.Errorf("-scale-min %d is out of range: want a non-negative active-server floor", cli.scaleMin)
	case cli.scaleMin > 0 && cli.scaleP99 <= 0:
		return nil, fmt.Errorf("-scale-min needs a positive -scale-p99 target (got %v)", cli.scaleP99)
	}
	ctl := umanycore.ControlConfig{
		MaxRetries:     cli.retries,
		RetryBase:      sim.Time(cli.retryBase.Nanoseconds()) * umanycore.Nanosecond,
		RetryCap:       sim.Time(cli.retryCap.Nanoseconds()) * umanycore.Nanosecond,
		RetryJitter:    cli.retryJitter,
		HedgeAfter:     sim.Time(cli.hedge.Nanoseconds()) * umanycore.Nanosecond,
		ShedProb:       cli.shedProb,
		ShedSLOMicros:  cli.shedSLO,
		ScaleMin:       cli.scaleMin,
		ScaleP99Micros: cli.scaleP99,
		ScaleLag:       sim.Time(cli.scaleLag.Nanoseconds()) * umanycore.Nanosecond,
	}
	if !ctl.Enabled() {
		return nil, nil
	}
	if err := ctl.Validate(); err != nil {
		return nil, err
	}
	return &ctl, nil
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

func mixTag(mix bool) string {
	if mix {
		return " (mixed SocialNetwork stream)"
	}
	return ""
}

// fatal reports err and exits 2, stopping the CPU profile first so a run
// that fails after profiling began still leaves a complete profile.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "umprof:", err)
	cpuprof.Stop()
	os.Exit(2)
}
