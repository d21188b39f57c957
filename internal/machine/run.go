package machine

import (
	"sync"

	"umanycore/internal/dist"
	"umanycore/internal/icn"
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/svcgraph"
	"umanycore/internal/telemetry"
	"umanycore/internal/workload"
)

// ArrivalKind selects the open-loop arrival process.
type ArrivalKind int

// Arrival processes.
const (
	// PoissonArrivals is the paper's default (§5).
	PoissonArrivals ArrivalKind = iota
	// BurstyArrivals uses the Alibaba-like MMPP of §3.2.
	BurstyArrivals
	// TraceArrivals replays the Alibaba-like per-second load series
	// (Fig 2's marginal), scaled so its long-run mean matches RunConfig.RPS.
	TraceArrivals
)

// RunConfig drives one experiment on one machine.
type RunConfig struct {
	App *workload.App
	// Mix, when non-empty, replaces App's root with a weighted mixture of
	// request types from App's catalog (the §5 mixed-arrival methodology);
	// per-type latencies land in Result.PerRoot.
	Mix []workload.MixEntry
	// RPS is the offered load in requests per second.
	RPS float64
	// Duration is the arrival window.
	Duration sim.Time
	// Warmup discards requests arriving before this offset.
	Warmup sim.Time
	// Drain bounds how long after the arrival window the simulation keeps
	// running to let in-flight requests finish.
	Drain sim.Time
	// Arrivals selects the arrival process.
	Arrivals ArrivalKind
	// Replay, when non-nil, replaces the synthetic arrival process with an
	// external trace (see svcgraph.Trace.Bind): requests arrive at the
	// bound trace's virtual times inside the Duration window, each typed by
	// its record's root service and compute-scaled by its per-record
	// demand. RPS and Arrivals are ignored. Normalized defaults an empty
	// Mix to Replay.Mix() so the machine hosts every root the trace
	// submits.
	Replay *svcgraph.Replay
	// Seed drives all randomness.
	Seed int64
	// Obs, when non-nil, enables the observability layer for this run; the
	// recorded spans and metrics land in Result.Obs. Nil keeps every
	// instrumentation site on its zero-cost disabled path.
	Obs *obs.Options
	// Telemetry, when non-nil, attaches the streaming telemetry sampler:
	// periodic virtual-time snapshots of every metric, a mergeable latency
	// sketch, and the SLO watchdog. Implies the metrics registry (created if
	// Obs didn't request one). Nil costs nothing.
	Telemetry *telemetry.Options
}

// Normalized returns rc with zero-valued Duration/Warmup/Drain filled with
// their defaults. Run applies it internally; the coupled fleet runner calls
// it so both paths agree on the effective window.
func (rc RunConfig) Normalized() RunConfig {
	if rc.Duration == 0 {
		rc.Duration = sim.Second
	}
	if rc.Warmup == 0 {
		rc.Warmup = rc.Duration / 10
	}
	if rc.Drain == 0 {
		rc.Drain = 2 * sim.Second
	}
	if rc.Replay != nil && len(rc.Mix) == 0 {
		rc.Mix = rc.Replay.Mix()
	}
	return rc
}

// Result summarizes one run.
type Result struct {
	Machine string
	App     string
	RPS     float64
	// Latency is the end-to-end latency distribution in microseconds
	// (measured requests only).
	Latency stats.Summary
	// Sample is the raw latency sample behind Latency (microseconds); fleet
	// aggregation merges these.
	Sample *stats.Sample
	// PerRoot summarizes latency per request type (root service ID) for
	// mixed runs.
	PerRoot map[int]stats.Summary
	// TailToAvg is P99/mean.
	TailToAvg float64
	// Submitted/Completed/Rejected/Unfinished account for every root.
	Submitted  uint64
	Completed  uint64
	Rejected   uint64
	Unfinished int64
	// Invocations counts finished service invocations.
	Invocations uint64
	// Utilization is aggregate core busy time over the arrival window.
	Utilization float64
	// MeanHops is the observed mean ICN path length.
	MeanHops float64
	// MaxLinkUtil is the hottest ICN link's utilization.
	MaxLinkUtil float64
	// Events is the simulation event count (performance reporting).
	Events uint64
	// Obs carries the run's spans and metrics snapshot when RunConfig.Obs
	// enabled the observability layer; nil otherwise.
	Obs *obs.Run
	// Telemetry carries the run's time series, latency sketch and watchdog
	// alerts when RunConfig.Telemetry enabled the sampler; nil otherwise.
	Telemetry *telemetry.Run
}

// enginePool recycles simulation engines across runs: replicate loops (grid
// sweeps, binary searches, fleet servers) reuse heap storage, event free
// lists and random streams instead of re-growing them every run. Engines are
// handed out per Run call, so concurrent sweep workers each get their own.
var enginePool = sync.Pool{
	New: func() any { return sim.NewEngineCap(0, 4096) },
}

// Run executes one machine under open-loop load and returns the results.
func Run(cfg Config, rc RunConfig) *Result {
	rc = rc.Normalized()
	eng := enginePool.Get().(*sim.Engine)
	if eng.Resets() > 0 || eng.Fired() > 0 {
		engineReuse.Add(1)
	}
	eng.Reset(rc.Seed)
	defer enginePool.Put(eng)
	var m *Machine
	if len(rc.Mix) > 0 {
		m = NewMix(eng, cfg, rc.App.Catalog, rc.Mix)
	} else {
		m = New(eng, cfg, rc.App)
	}
	m.SetMeasureFrom(rc.Warmup)

	var col *obs.Collector
	var reg *obs.Registry
	if rc.Obs != nil {
		if rc.Obs.Trace {
			col = obs.NewCollector()
		}
		if rc.Obs.Metrics {
			reg = obs.NewRegistry()
		}
	}
	var tele *telemetry.Sampler
	if rc.Telemetry != nil {
		// The sampler snapshots the metrics registry, so telemetry implies
		// one even when Obs didn't ask for it.
		if reg == nil {
			reg = obs.NewRegistry()
		}
		tele = telemetry.Start(eng, reg, rc.Duration+rc.Drain, *rc.Telemetry)
	}
	if col != nil || reg != nil {
		m.EnableObs(col, reg)
		m.EnableTelemetry(tele)
	}

	if rc.Replay != nil {
		rc.Replay.Schedule(eng, rc.Duration, m.SubmitRootAs)
	} else {
		arrivalGap := ArrivalGap(eng, rc, rc.RPS)
		var schedule func()
		schedule = func() {
			if eng.Now() >= rc.Duration {
				return
			}
			m.SubmitRoot()
			eng.After(arrivalGap(), schedule)
		}
		eng.At(arrivalGap(), schedule)
	}
	eng.RunUntil(rc.Duration + rc.Drain)

	res := BuildResult(m, eng, rc)
	if reg != nil {
		m.finishMetrics(eng, rc.Duration)
	}
	if rc.Obs != nil {
		res.Obs = &obs.Run{}
		if col != nil {
			res.Obs.Spans = col.Spans()
		}
		if reg != nil {
			res.Obs.Metrics = reg.Snapshot(eng.Now())
		}
	}
	if tele != nil {
		res.Telemetry = tele.Finish(eng.Now())
	}
	return res
}

// ArrivalGap returns the open-loop inter-arrival sampler for rc's arrival
// process at rate rps, drawing from eng's "arrivals" stream. Run uses it
// with rc.RPS on a per-server engine; the coupled fleet runner uses it with
// the fleet's total RPS on the shared engine, so a one-server fleet draws
// the exact same gap sequence as a plain Run. The stream is resolved once
// here: Engine.Reset re-seeds it in place, so the sampler stays valid.
func ArrivalGap(eng *sim.Engine, rc RunConfig, rps float64) func() sim.Time {
	r := eng.Rand("arrivals")
	switch rc.Arrivals {
	case BurstyArrivals:
		mmpp := workload.BurstyArrivals(rps)
		return func() sim.Time {
			return sim.FromSeconds(mmpp.NextGap(r))
		}
	case TraceArrivals:
		// Per-second rates drawn from the production-trace marginal
		// (median 500 RPS, heavy upper tail), rescaled to the target mean.
		g := workload.NewTraceGen(sim.DeriveSeed(rc.Seed, 104729))
		loads := g.ServerLoad(1024)
		var sum float64
		for _, l := range loads {
			sum += float64(l)
		}
		scale := rps / (sum / float64(len(loads)))
		return func() sim.Time {
			sec := int(eng.Now() / sim.Second)
			rate := float64(loads[sec%len(loads)]) * scale
			if rate <= 0 {
				rate = 1
			}
			return sim.FromSeconds(dist.Poisson{Rate: rate}.NextGap(r))
		}
	default:
		return func() sim.Time {
			return sim.FromSeconds(dist.Poisson{Rate: rps}.NextGap(r))
		}
	}
}

// BuildResult assembles the plain-statistics Result of a finished machine —
// the shared tail of Run and the coupled fleet runner (which drives several
// machines on one engine and assembles one Result per server). Observability
// output (Result.Obs / Result.Telemetry) is attached by the caller. Events
// reports the engine's fired-event count: per-run for Run, shared across
// servers for a coupled fleet.
func BuildResult(m *Machine, eng *sim.Engine, rc RunConfig) *Result {
	return &Result{
		Machine:     m.cfg.Name,
		App:         rc.App.Name,
		RPS:         rc.RPS,
		Latency:     m.Latency.Summarize(),
		Sample:      &m.Latency,
		PerRoot:     perRootSummaries(m),
		TailToAvg:   m.Latency.TailToAvg(),
		Submitted:   m.Submitted,
		Completed:   m.Completed,
		Rejected:    m.Rejected,
		Unfinished:  int64(m.Submitted) - int64(m.Completed) - int64(m.rejectedRoots),
		Invocations: m.Invocations,
		Utilization: m.Utilization(rc.Duration),
		MeanHops:    m.MeanHops(),
		MaxLinkUtil: icn.MaxUtilization(m.topo, rc.Duration),
		Events:      eng.Fired(),
	}
}

func perRootSummaries(m *Machine) map[int]stats.Summary {
	out := make(map[int]stats.Summary, len(m.LatencyByRoot))
	for root, s := range m.LatencyByRoot {
		out[root] = s.Summarize()
	}
	return out
}

// ContentionFreeAvg measures the average end-to-end latency at near-zero
// load — the QoS reference of §6.5 ("5× the contention-free average").
func ContentionFreeAvg(cfg Config, app *workload.App, seed int64) float64 {
	res := Run(cfg, RunConfig{
		App:      app,
		RPS:      50, // sparse enough that requests never overlap
		Duration: 2 * sim.Second,
		Warmup:   200 * sim.Millisecond,
		Seed:     seed,
	})
	return res.Latency.Mean
}

// MaxQoSThroughput binary-searches the largest offered load whose P99 stays
// within qosFactor× the contention-free average and whose rejections remain
// negligible (Fig 18). Returns the throughput in RPS.
func MaxQoSThroughput(cfg Config, app *workload.App, qosFactor float64, loRPS, hiRPS float64, seed int64) float64 {
	limit := qosFactor * ContentionFreeAvg(cfg, app, seed)
	ok := func(rps float64) bool {
		res := Run(cfg, RunConfig{
			App:      app,
			RPS:      rps,
			Duration: 500 * sim.Millisecond,
			Warmup:   100 * sim.Millisecond,
			Drain:    sim.Second,
			Seed:     seed,
		})
		if res.Completed == 0 {
			return false
		}
		bad := float64(res.Rejected) + float64(res.Unfinished)
		if bad > 0.01*float64(res.Submitted) {
			return false
		}
		return res.Latency.P99 <= limit
	}
	if !ok(loRPS) {
		return loRPS
	}
	lo, hi := loRPS, hiRPS
	for hi-lo > 0.05*lo {
		mid := (lo + hi) / 2
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
