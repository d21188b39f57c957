// Command umsim runs one end-to-end simulation from flags and prints a
// result summary — the interactive front door to the simulator.
//
// Examples:
//
//	umsim -arch umanycore -app CPost -rps 15000
//	umsim -arch serverclass -cores 128 -mix -rps 10000 -duration 500ms
//	umsim -arch scaleout -app synthetic:bimodal:10:3 -rps 50000 -bursty
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"umanycore"
	"umanycore/internal/cli"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/stats"
	"umanycore/internal/sweep"
)

func main() {
	arch := flag.String("arch", "umanycore", "architecture: umanycore | scaleout | serverclass")
	cores := flag.Int("cores", 40, "ServerClass core count (40 iso-power, 128 iso-area)")
	appName := flag.String("app", "CPost", "application (Text SGraph User PstStr UsrMnt HomeT CPost UrlShort, or μSuite HDSearch Router SetAlgebra Recommend) or synthetic:<dist>:<mean_us>:<blocks>")
	mix := flag.Bool("mix", false, "drive the full SocialNetwork request mix instead of one app")
	rps := flag.Float64("rps", 15000, "offered load (requests/second)")
	duration := flag.Duration("duration", 400*time.Millisecond, "arrival window (simulated)")
	warmup := flag.Duration("warmup", 80*time.Millisecond, "measurement warmup (simulated)")
	bursty := flag.Bool("bursty", false, "use bursty (MMPP) arrivals instead of Poisson")
	seed := flag.Int64("seed", 1, "simulation seed")
	queues := flag.Int("queues", 0, "override scheduling-domain count (0 = preset)")
	csCycles := flag.Int("cs", -1, "override context-switch cycles (-1 = preset)")
	noContention := flag.Bool("no-icn-contention", false, "disable ICN contention (Fig 7 baseline)")
	replicates := flag.Int("replicates", 1, "independent replicates with derived seeds (run in parallel; reports the p99 spread)")
	traceOut := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON of replicate 0 to FILE (- = stdout)")
	exemplarsOut := flag.String("exemplars", "", "write replicate 0's K slowest request trees as JSON to FILE (- = stdout)")
	exemplarsK := flag.Int("exemplars-k", 3, "how many tail exemplars to select (needs -exemplars)")
	metricsOut := flag.String("metrics", "", "write replicate 0's metrics snapshot as JSON to FILE (- = stdout)")
	sample := flag.Duration("sample", 0, "streaming-telemetry sampling interval for replicate 0 (simulated; 0 = off unless another telemetry flag enables it)")
	seriesOut := flag.String("series", "", "write replicate 0's telemetry time series as CSV to FILE (- = stdout)")
	dash := flag.Bool("dash", false, "print a terminal sparkline dashboard of the telemetry series")
	sloP99 := flag.Float64("slo-p99", 0, "enable the SLO watchdog against this P99 objective [us] and print its alerts")
	serve := flag.String("serve", "", "serve live /metrics, /healthz, /progress and pprof on this address during the run (e.g. :9090)")
	cli.Parse("umsim")

	if err := cli.CheckRunWindow(*rps, *duration, *warmup); err != nil {
		fatal(err)
	}
	switch {
	case *replicates < 1:
		fatal(fmt.Errorf("-replicates %d is out of range: want at least 1 replicate", *replicates))
	case *exemplarsK < 1:
		fatal(fmt.Errorf("-exemplars-k %d is out of range: want at least 1 exemplar", *exemplarsK))
	case *sloP99 < 0:
		fatal(fmt.Errorf("-slo-p99 %v is out of range: want a non-negative P99 objective in microseconds", *sloP99))
	case *queues < 0:
		fatal(fmt.Errorf("-queues %d is out of range: want a domain count, or 0 for the preset's", *queues))
	case *csCycles < -1:
		fatal(fmt.Errorf("-cs %d is out of range: want a cycle count, or -1 for the preset's", *csCycles))
	}

	cfg, err := cli.Arch(*arch, *cores)
	if err != nil {
		fatal(err)
	}
	if *queues > 0 {
		cfg.Domains = *queues
	}
	if *csCycles >= 0 {
		cfg.Policy.CSCycles = *csCycles
	}
	if *noContention {
		cfg.ICNContention = false
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	app, err := cli.App(*appName)
	if err != nil {
		fatal(err)
	}

	rc := cli.RunConfig(app, *mix, *rps, *duration, *warmup, *seed)
	if *bursty {
		rc.Arrivals = machine.BurstyArrivals
	}

	// Replicate 0 keeps the user's seed; extra replicates derive theirs, so
	// -replicates 1 output matches a plain run bit for bit.
	seeds := make([]int64, *replicates)
	seeds[0] = *seed
	for i := 1; i < *replicates; i++ {
		seeds[i] = sweep.Seed(*seed, fmt.Sprintf("replicate/%d", i))
	}
	// Observability is recorded for replicate 0 only — the seed the user
	// asked for; extra replicates stay on the zero-overhead path.
	obsOn := *traceOut != "" || *metricsOut != "" || *exemplarsOut != ""
	teleOn := *sample > 0 || *seriesOut != "" || *dash || *sloP99 > 0
	var teleOpts *umanycore.TelemetryOptions
	if teleOn {
		if *sloP99 > 0 {
			teleOpts = umanycore.DefaultTelemetry(*sloP99)
		} else {
			teleOpts = &umanycore.TelemetryOptions{}
		}
		if *sample > 0 {
			teleOpts.Interval = cli.SimTime(*sample)
		}
	}
	if err := cli.Serve("umsim", *serve); err != nil {
		fatal(err)
	}
	start := time.Now()
	results := sweep.Map(0, seeds, func(i int, s int64) *umanycore.Result {
		rrc := rc
		rrc.Seed = s
		if obsOn && i == 0 {
			rrc.Obs = &umanycore.ObsOptions{
				Trace:   *traceOut != "" || *exemplarsOut != "",
				Metrics: *metricsOut != "",
			}
		}
		if teleOn && i == 0 {
			rrc.Telemetry = teleOpts
		}
		return umanycore.Run(cfg, rrc)
	})
	elapsed := time.Since(start)
	res := results[0]
	if res.Telemetry != nil {
		cli.Publish(res.Telemetry)
	}

	if *traceOut != "" {
		// Chrome trace-event JSON, loadable in Perfetto or chrome://tracing.
		if err := cli.WriteFile(*traceOut, func(w io.Writer) error {
			return obs.WriteChromeTrace(w, res.Obs.Spans, cli.ServiceName(app.Catalog))
		}); err != nil {
			fatal(err)
		}
	}
	if *exemplarsOut != "" {
		// The K slowest request trees, selected by virtual time only.
		if err := cli.WriteExemplars(*exemplarsOut, obs.Exemplars(res.Obs.Spans, *exemplarsK)); err != nil {
			fatal(err)
		}
	}
	if *metricsOut != "" {
		if err := cli.WriteFile(*metricsOut, func(w io.Writer) error { return writeMetrics(w, res) }); err != nil {
			fatal(err)
		}
	}
	if *seriesOut != "" {
		if res.Telemetry == nil {
			fatal(fmt.Errorf("-series needs telemetry (it enables the sampler; did the run record nothing?)"))
		}
		if err := cli.WriteFile(*seriesOut, res.Telemetry.WriteCSV); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("machine      : %s (%d cores, %d domains, %s)\n", res.Machine, cfg.Cores, cfg.Domains, cfg.Topo)
	fmt.Printf("workload     : %s @ %.0f RPS%s\n", res.App, res.RPS, cli.MixTag(*mix))
	fmt.Printf("requests     : submitted=%d completed=%d rejected=%d unfinished=%d\n",
		res.Submitted, res.Completed, res.Rejected, res.Unfinished)
	fmt.Printf("latency [us] : mean=%.1f p50=%.1f p99=%.1f max=%.1f (p99/mean %.2f)\n",
		res.Latency.Mean, res.Latency.Median, res.Latency.P99, res.Latency.Max, res.TailToAvg)
	fmt.Printf("machine      : core-util=%.3f mean-hops=%.2f max-link-util=%.3f\n",
		res.Utilization, res.MeanHops, res.MaxLinkUtil)
	fmt.Printf("simulator    : %d events in %v (%.1fM events/s)\n",
		res.Events, elapsed.Round(time.Millisecond), float64(res.Events)/elapsed.Seconds()/1e6)
	if len(res.PerRoot) > 1 {
		fmt.Println("per request type [us]:")
		catalog := app.Catalog
		for root := 0; root < len(catalog.Services); root++ {
			sum, ok := res.PerRoot[root]
			if !ok {
				continue
			}
			fmt.Printf("  %-9s n=%-7d mean=%9.1f p99=%10.1f\n",
				catalog.Service(root).Name, sum.N, sum.Mean, sum.P99)
		}
	}
	if len(results) > 1 {
		lo, hi, sum := results[0].Latency.P99, results[0].Latency.P99, 0.0
		for _, r := range results {
			p := r.Latency.P99
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
			sum += p
		}
		fmt.Printf("replicates   : n=%d p99 mean=%.1f min=%.1f max=%.1f [us]\n",
			len(results), sum/float64(len(results)), lo, hi)
	}
	if res.Telemetry != nil {
		if *dash {
			fmt.Println()
			res.Telemetry.Dashboard(os.Stdout, 48)
		} else if *sloP99 > 0 {
			if len(res.Telemetry.Alerts) == 0 {
				fmt.Printf("slo watchdog : no alerts (P99 objective %.0fus)\n", *sloP99)
			} else {
				fmt.Printf("slo watchdog : %d transitions (P99 objective %.0fus)\n", len(res.Telemetry.Alerts), *sloP99)
				for _, a := range res.Telemetry.Alerts {
					fmt.Printf("  %s\n", a.String())
				}
			}
		}
	}
}

// writeMetrics emits the run's metrics snapshot plus the latency summary as
// one JSON object with stable key order (stats.JSONObject — the encoder
// shared with umprof and umbench).
func writeMetrics(w io.Writer, res *umanycore.Result) error {
	lat, err := res.Latency.MarshalJSON()
	if err != nil {
		return err
	}
	var o stats.JSONObject
	o.Str("machine", res.Machine).
		Str("app", res.App).
		Float("rps", res.RPS).
		Raw("latency", lat).
		Obj("metrics", func(m *stats.JSONObject) {
			for _, mt := range res.Obs.Metrics {
				m.Float(mt.Name, mt.Value)
			}
		})
	if _, err := w.Write(o.Bytes()); err != nil {
		return err
	}
	_, err = w.Write([]byte("\n"))
	return err
}

func fatal(err error) { cli.Fatal("umsim", err) }
