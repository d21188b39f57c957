package main

import (
	"fmt"
	"time"

	"umanycore"
	"umanycore/internal/machine"
	"umanycore/internal/sim"
	"umanycore/internal/sweep"
)

// A workload is one fixed simulation job. build makes every input of the
// job from the seed and constructs the machines it runs on: that is the
// set-up phase setup_s times.
type workload struct {
	name  string
	build func(seed int64, tr *tracer) *job
	// absent names the per-layer metrics this workload cannot report, and
	// why.
	absent map[string]string
}

type job struct {
	// pass runs the job once. With a non-nil tracer it records spans
	// under root, enables the program's metrics registry and returns the
	// per-layer metrics of the pass.
	pass func(tr *tracer, root *span) outcome
	// variants re-run the job with other worker counts; each must return
	// the timed pass's hash bit for bit.
	variants []variant
	// threads is how many goroutines the job keeps busy, and so how many
	// copies of the calibration kernel run next to it.
	threads int
}

type variant struct {
	name string
	// shared compares only outcome.shared instead of the full hash.
	shared bool
	run    func() outcome
}

// outcome is what one pass returns: the hash of every simulated statistic,
// the invariant violations found, the simulated P99 witness and, when
// traced, the per-layer metrics.
type outcome struct {
	hash string
	// shared hashes the part of the statistics a shared variant
	// reproduces: for the fleet, everything but the fabric's per-shard
	// execution slices; for the figures, the first seed's rows.
	shared string
	errs   []string
	simP99 float64
	layers map[string]float64
	// workerBusy is the fleet's summed shard-worker busy time (host
	// seconds); zero without a worker pool.
	workerBusy float64
}

var workloads = []workload{
	{name: "server", build: buildServer, absent: map[string]string{
		"pdes.*":        "server runs one machine; it never calls internal/pdes",
		"sweep.*":       "server runs one simulation; it never calls internal/sweep",
		"experiments.*": "server calls no figure driver",
	}},
	{name: "fleet16", build: buildFleet, absent: map[string]string{
		"sim.heap_peak": "the coupled fleet's registry records no sim.heap.peak: a shard's engine statistics depend on how shards share engines",
		"sweep.*":       "fleet16 runs one coupled simulation; it never calls internal/sweep",
		"experiments.*": "fleet16 calls no figure driver",
	}},
	{name: "figures", build: buildFigures, absent: map[string]string{
		"sim.events":           "figure drivers return rows without engine event counts",
		"sim.ns_per_event":     "figure drivers return rows without engine event counts",
		"sim.allocs_per_event": "figure drivers return rows without engine event counts",
		"sim.heap_peak":        "figure drivers do not enable the metrics registry",
		"pdes.*":               "the Fig 14/15/19 drivers never call internal/pdes",
	}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want server, fleet16 or figures)", name)
}

// Fixed job parameters. Arrivals are open-loop Poisson in virtual time.
const (
	serverRPS      = 15000 // the paper's top load
	serverDuration = 400 * umanycore.Millisecond
	fleetServers   = 16
	fleetRPSPer    = 8000
	fleetDuration  = 200 * umanycore.Millisecond
	figureParallel = 2
	figureSeeds    = 4
)

// buildMachines constructs n machines on fresh engines, as the timed job
// does inside Run and RunFleet: serving the mix when one is given, app's
// root otherwise.
func buildMachines(cfg umanycore.Config, app *umanycore.App, mix []umanycore.MixEntry, n int, seed int64, tr *tracer) {
	for i := 0; i < n; i++ {
		if mix == nil {
			sp := tr.begin("machine.New", nil)
			machine.New(sim.NewEngine(seed), cfg, app)
			tr.end(sp)
			continue
		}
		sp := tr.begin("machine.NewMix", nil)
		machine.NewMix(sim.NewEngine(seed), cfg, app.Catalog, mix)
		tr.end(sp)
	}
}

func buildServer(seed int64, tr *tracer) *job {
	app := umanycore.SocialNetworkApps()[0]
	cfg := umanycore.UManycore()
	rc := umanycore.RunConfig{
		App: app, Mix: umanycore.SocialNetworkMix(), RPS: serverRPS,
		Duration: serverDuration, Warmup: serverDuration / 10, Seed: seed,
	}
	buildMachines(cfg, app, rc.Mix, 1, seed, tr)
	return &job{threads: 1, pass: func(tr *tracer, root *span) outcome {
		rc := rc
		if tr != nil {
			rc.Obs = &umanycore.ObsOptions{Metrics: true}
		}
		sp := tr.begin("Run", root)
		res := umanycore.Run(cfg, rc)
		tr.end(sp)
		sp.attr("events", float64(res.Events))
		sp.attr("requests", float64(res.Completed))
		o := outcome{hash: hashOf(res), simP99: res.Latency.P99, errs: conservation("server", res)}
		if tr != nil {
			o.layers = engineLayers(sp, res.Events, res.Completed)
			if v, ok := res.Obs.Metrics.Get("sim.heap.peak"); ok {
				o.layers["sim.heap_peak"] = v
			}
		}
		return o
	}}
}

func buildFleet(seed int64, tr *tracer) *job {
	app := umanycore.SocialNetworkApps()[0]
	fc := umanycore.DefaultFleet(umanycore.UManycore())
	fc.Servers = fleetServers
	fc.LB = "p2c"
	rc := umanycore.RunConfig{App: app, Duration: fleetDuration, Warmup: fleetDuration / 10, Seed: seed}
	buildMachines(fc.Machine, app, nil, fleetServers, seed, tr)
	run := func(fc umanycore.FleetConfig, tr *tracer, root *span) outcome {
		rc := rc
		if tr != nil {
			rc.Obs = &umanycore.ObsOptions{Metrics: true}
		}
		sp := tr.begin("RunFleet", root)
		res := umanycore.RunFleet(fc, app, fleetServers*fleetRPSPer, rc, seed)
		tr.end(sp)
		sp.attr("events", float64(res.EventsProcessed))
		sp.attr("requests", float64(res.Completed))
		o := outcome{hash: hashOf(res), shared: hashSkipping(perShardFields, res), simP99: res.Latency.P99}
		for i, s := range res.PerServer {
			o.errs = append(o.errs, conservation(fmt.Sprintf("server %d", i), s)...)
		}
		fab := res.Fabric
		if fab == nil {
			o.errs = append(o.errs, "coupled fleet returned no fabric statistics")
			return o
		}
		o.workerBusy = fab.WorkerBusySeconds
		if fab.MessagesSent != fab.MessagesDelivered {
			o.errs = append(o.errs, fmt.Sprintf("fabric sent %d messages but delivered %d", fab.MessagesSent, fab.MessagesDelivered))
		}
		if tr != nil {
			o.layers = engineLayers(sp, res.EventsProcessed, res.Completed)
			o.layers["pdes.rounds"] = float64(fab.Rounds)
			o.layers["pdes.events_per_window"] = fab.EventsPerWindow()
			o.layers["pdes.msgs"] = float64(fab.MessagesSent)
			o.layers["pdes.lookahead_util"] = fab.LookaheadUtilization()
			o.layers["pdes.shard_imbalance"] = imbalance(fab.ShardEvents)
			o.layers["pdes.events_per_s"] = float64(res.EventsProcessed) / sp.seconds()
		}
		return o
	}
	withWorkers := func(workers int) variant {
		fc := fc
		fc.ShardWorkers = workers
		// The single-engine reference (-1) has no per-shard execution
		// slices: its shards share one event heap.
		return variant{fmt.Sprintf("ShardWorkers=%d", workers), workers < 0, func() outcome { return run(fc, nil, nil) }}
	}
	return &job{
		threads:  1,
		pass:     func(tr *tracer, root *span) outcome { return run(fc, tr, root) },
		variants: []variant{withWorkers(2), withWorkers(-1)},
	}
}

func buildFigures(seed int64, tr *tracer) *job {
	// Each figure set is one seed's draw; figureSeeds of them per pass
	// average out how much simulated work a single seed happens to make.
	base := umanycore.DefaultExperimentOptions().Quick()
	base.Parallel = figureParallel
	opts := make([]umanycore.ExperimentOptions, figureSeeds)
	for i := range opts {
		opts[i] = base
		opts[i].Seed = seed*figureSeeds + int64(i)
	}
	// The Fig 14 grid's three architectures, each serving the mix.
	for _, cfg := range []umanycore.Config{umanycore.ServerClass(40), umanycore.ScaleOut(), umanycore.UManycore()} {
		buildMachines(cfg, base.Apps[0], umanycore.SocialNetworkMix(), 1, seed, tr)
	}
	run := func(opts []umanycore.ExperimentOptions, parallel int, tr *tracer, root *span) outcome {
		cells0, _ := sweep.Progress()
		busy0 := sweep.Busy()
		var e2eBusy time.Duration
		var e2eAllocs uint64
		secs := map[string]float64{}
		timed := func(name string, f func()) {
			sp := tr.begin(name, root)
			f()
			tr.end(sp)
			if sp != nil {
				secs[name] += sp.seconds()
				if name == "EndToEnd" {
					e2eAllocs += sp.Allocs
				}
			}
		}
		var rows []any
		var first string
		var p99s []float64
		var requests uint64
		for i, o := range opts {
			o.Parallel = parallel
			var e2e []umanycore.E2ERow
			var f15 []umanycore.Fig15Row
			var f19 []umanycore.Fig19Row
			b := sweep.Busy()
			timed("EndToEnd", func() { e2e = umanycore.EndToEnd(o) })
			e2eBusy += sweep.Busy() - b
			timed("Fig15", func() { f15 = umanycore.Fig15(o) })
			timed("Fig19", func() { f19 = umanycore.Fig19(o) })
			if len(e2e) == 0 || len(f15) == 0 || len(f19) == 0 {
				return outcome{errs: []string{fmt.Sprintf("seed %d: empty figure: %d e2e, %d fig15, %d fig19 rows",
					o.Seed, len(e2e), len(f15), len(f19))}}
			}
			rows = append(rows, e2e, f15, f19)
			if i == 0 {
				first = hashOf(rows...)
			}
			for _, r := range e2e {
				p99s = append(p99s, r.Latency.P99)
				requests += r.Completed
			}
		}
		out := outcome{hash: hashOf(rows...), shared: first, simP99: median(p99s)}
		if tr != nil {
			cells1, _ := sweep.Progress()
			busy := (sweep.Busy() - busy0).Seconds()
			wall := secs["EndToEnd"] + secs["Fig15"] + secs["Fig19"]
			out.layers = map[string]float64{
				"machine.requests":       float64(requests),
				"machine.ns_per_req":     float64(e2eBusy.Nanoseconds()) / float64(requests),
				"machine.allocs_per_req": float64(e2eAllocs) / float64(requests),
				"sweep.cells":            float64(cells1 - cells0),
				"sweep.busy_s":           busy,
				"sweep.parallel_eff":     busy / (float64(parallel) * wall),
				"experiments.e2e_s":      secs["EndToEnd"],
				"experiments.fig15_s":    secs["Fig15"],
				"experiments.fig19_s":    secs["Fig19"],
			}
		}
		return out
	}
	// The sequential re-run covers the first seed only: that is enough to
	// show the sweep's worker count never enters the results.
	return &job{
		threads:  figureParallel,
		pass:     func(tr *tracer, root *span) outcome { return run(opts, figureParallel, tr, root) },
		variants: []variant{{"Parallel=1", true, func() outcome { return run(opts[:1], 1, nil, nil) }}},
	}
}

// engineLayers derives the sim and machine metrics of one traced call
// that fired events and completed requests.
func engineLayers(sp *span, events, requests uint64) map[string]float64 {
	ns := float64(sp.EndNS - sp.StartNS)
	return map[string]float64{
		"sim.events":             float64(events),
		"sim.ns_per_event":       ns / float64(events),
		"sim.allocs_per_event":   float64(sp.Allocs) / float64(events),
		"machine.requests":       float64(requests),
		"machine.ns_per_req":     ns / float64(requests),
		"machine.allocs_per_req": float64(sp.Allocs) / float64(requests),
	}
}

// conservation checks that every root a server accepted is accounted
// for.
func conservation(who string, r *umanycore.Result) []string {
	if r.Unfinished < 0 || r.Submitted != r.Completed+r.Rejected+uint64(r.Unfinished) {
		return []string{fmt.Sprintf("%s: submitted %d != completed %d + rejected %d + unfinished %d",
			who, r.Submitted, r.Completed, r.Rejected, r.Unfinished)}
	}
	return nil
}

// imbalance is the busiest shard's event count over the mean.
func imbalance(events []uint64) float64 {
	var sum, top uint64
	for _, e := range events {
		sum += e
		top = max(top, e)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(events)) / float64(sum)
}
