package machine

import (
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
	// enabled the observability layer; nil otherwise. Like Telemetry it is
	// run-scoped and never part of a cached cell (json:"-"): cells that
	// attach either are not cached at all.
	Obs *obs.Run `json:"-"`
	// Telemetry carries the run's time series, latency sketch and watchdog
	// alerts when RunConfig.Telemetry enabled the sampler; nil otherwise.
	Telemetry *telemetry.Run `json:"-"`
}

// enginePool recycles simulation engines across runs: replicate loops (grid
// sweeps, binary searches) reuse heap storage, event free lists and random
// streams instead of re-growing them every run. Engines are handed out per
// Run call, so concurrent sweep workers each get their own.
var enginePool = sim.FreeList[*sim.Engine]{
	New: func() *sim.Engine { return sim.NewEngineCap(0, 4096) },
}

// Run executes one machine under open-loop load and returns the results.
func Run(cfg Config, rc RunConfig) *Result {
	rc = rc.Normalized()
	eng := enginePool.Get()
	eng.Reset(rc.Seed)
	s := NewServer(eng, cfg, rc, nil, OwnEngine)
	Arrivals(eng, rc, rc.RPS, s.SubmitRoot, s.SubmitRootAs)
	eng.RunUntil(rc.Duration + rc.Drain)
	res := s.Finish()
	// Only an engine whose run returned goes back: one that panicked may
	// be mid-event.
	enginePool.Put(eng)
	return res
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
