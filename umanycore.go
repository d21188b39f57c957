// Package umanycore is a from-scratch reproduction of "μManycore: A
// Cloud-Native CPU for Tail at Scale" (Stojkovic, Liu, Shahbaz, Torrellas —
// ISCA 2023): a discrete-event architectural simulator for the 1024-core
// μManycore processor (hardware cache-coherent villages, a hierarchical
// leaf-spine on-package interconnect, hardware request queuing/scheduling,
// and hardware context switching), its two baselines (the 40/128-core
// ServerClass multicore and the 1024-core ScaleOut manycore), and the full
// microservice workload and measurement methodology of the paper's
// evaluation.
//
// # Quick start
//
//	cfg := umanycore.UManycore()
//	apps := umanycore.SocialNetworkApps()
//	res := umanycore.Run(cfg, umanycore.RunConfig{
//		App: apps[0], RPS: 15000,
//	})
//	fmt.Printf("p99 = %.0fµs\n", res.Latency.P99)
//
// # Reproducing the paper
//
// Every table and figure of the evaluation has a regeneration function
// (Fig1 … Fig20, EndToEnd, Sec68) driven by ExperimentOptions; cmd/umbench
// prints them all as text tables, and bench_test.go exposes each as a Go
// benchmark. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// measured-vs-paper results.
package umanycore

import (
	"io"

	"umanycore/internal/control"
	"umanycore/internal/experiments"
	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/pdes"
	"umanycore/internal/power"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/svcgraph"
	"umanycore/internal/telemetry"
	"umanycore/internal/whatif"
	"umanycore/internal/workload"
)

// Version identifies this reproduction release.
const Version = "1.0.0"

// Core simulation types.
type (
	// Time is the simulation clock in picoseconds.
	Time = sim.Time
	// Config parameterizes a simulated server (cores, domains, scheduling
	// policy, interconnect, coherence, NIC/RPC costs).
	Config = machine.Config
	// RunConfig drives one open-loop experiment.
	RunConfig = machine.RunConfig
	// Result summarizes one run: latency distribution, per-request-type
	// summaries, utilization, ICN statistics.
	Result = machine.Result
	// Summary is a compact latency record (mean / median / P99 / max).
	Summary = stats.Summary
	// ExtensionConfig enables the optional features beyond the paper's
	// evaluated design: service co-location, RQ partitioning, core
	// stealing, heterogeneous villages (set on Config.Extensions).
	ExtensionConfig = machine.ExtensionConfig
	// Sample is a raw latency sample with exact quantiles.
	Sample = stats.Sample
)

// Observability types (see OBSERVABILITY.md).
type (
	// ObsOptions selects which observability components a run enables
	// (set on RunConfig.Obs; nil disables the layer at zero cost).
	ObsOptions = obs.Options
	// ObsRun bundles a run's recorded spans and metrics snapshot.
	ObsRun = obs.Run
	// Span is one recorded interval of a request's trace tree.
	Span = obs.Span
	// BlameReport is the tail-blame breakdown over traced requests.
	BlameReport = obs.Report
	// BlameSummary is a BlameReport's cacheable aggregate core.
	BlameSummary = obs.BlameSummary
	// BlameDiff is a differential blame report: how critical-path
	// attribution migrates between two analyses of the same workload.
	BlameDiff = obs.ReportDiff
	// StageSpeedups virtually accelerates pipeline stages for causal
	// profiling (set on Config.WhatIf, or on a FleetConfig's Machine.WhatIf
	// for every server; each field removes that fraction of the stage's
	// configured cost).
	StageSpeedups = machine.StageSpeedups
	// WhatIfTarget selects the system a causal-profiling grid studies.
	WhatIfTarget = whatif.Target
	// WhatIfOptions tunes the causal-profiling grid.
	WhatIfOptions = whatif.Options
	// WhatIfReport is the full what-if sensitivity study.
	WhatIfReport = whatif.Report
)

// DefaultObs enables both tracing and metrics for a run:
//
//	rc.Obs = umanycore.DefaultObs()
func DefaultObs() *ObsOptions { return obs.DefaultOptions() }

// Streaming telemetry types (see OBSERVABILITY.md).
type (
	// TelemetryOptions configures the streaming telemetry sampler (set on
	// RunConfig.Telemetry; nil disables the layer at zero cost).
	TelemetryOptions = telemetry.Options
	// TelemetryRun bundles a run's time series, latency sketch and
	// watchdog alerts.
	TelemetryRun = telemetry.Run
	// SLORule is one windowed watchdog condition.
	SLORule = telemetry.Rule
	// SLOAlert is one watchdog fire/resolve transition at virtual time.
	SLOAlert = telemetry.Alert
	// Sketch is a mergeable relative-error quantile sketch.
	Sketch = stats.Sketch
)

// DefaultTelemetry enables the streaming sampler with its defaults (1ms
// interval, 4096-point rings, 1% sketch error) and the standard SLO
// watchdog against a P99 objective in microseconds:
//
//	rc.Telemetry = umanycore.DefaultTelemetry(500)
func DefaultTelemetry(p99TargetMicros float64) *TelemetryOptions {
	o := telemetry.DefaultOptions()
	o.Rules = telemetry.DefaultRules(p99TargetMicros)
	return o
}

// AnalyzeTail extracts the per-stage tail-blame report for the slowest
// topFrac of traced requests (0.01 = the paper-style slowest 1%).
func AnalyzeTail(spans []Span, topFrac float64) *BlameReport {
	return obs.Analyze(spans, topFrac)
}

// DiffBlame builds the differential blame report between two tail analyses
// of the same workload (base first, variant second): per-stage and
// per-server critical-path attribution before and after, telescoping to
// the end-to-end mean change (see OBSERVABILITY.md).
func DiffBlame(base, variant *BlameReport) *BlameDiff {
	return obs.DiffReports(base, variant)
}

// RunWhatIf executes a paired-seed causal-profiling grid: the target
// re-simulated under virtual per-stage speedups, each row reporting the
// stage's blame share next to the tail improvement actually bought.
func RunWhatIf(t WhatIfTarget, o WhatIfOptions) (*WhatIfReport, error) {
	return whatif.Run(t, o)
}

// Workload types.
type (
	// App is a benchmark application: a root service in a catalog.
	App = workload.App
	// Catalog is a closed set of services forming a call DAG.
	Catalog = workload.Catalog
	// Service describes one microservice's behaviour.
	Service = workload.Service
	// MixEntry weights one request type in a mixed arrival stream.
	MixEntry = workload.MixEntry
	// TraceRecord is one request of an Alibaba-like production trace.
	TraceRecord = workload.TraceRecord
)

// Service-graph workload types (see internal/svcgraph): explicit service
// placement across a fleet and external trace replay.
type (
	// GraphSpec maps every service of a catalog to the servers hosting it
	// (set on FleetConfig.Graph; each cross-edge RPC then ships to a real
	// host of its callee instead of a coin-flip peer).
	GraphSpec = svcgraph.Spec
	// ExternalTrace is a parsed replayable trace (the umtrace -csv wire
	// format).
	ExternalTrace = svcgraph.Trace
	// TraceReplay is a trace bound to an application's service names, ready
	// to drive arrivals (set on RunConfig.Replay).
	TraceReplay = svcgraph.Replay
)

// ParseTrace reads the replayable CSV wire format
// (arrival_us,service,duration_us,cpu_util,rpcs) with strict, line-numbered
// validation.
func ParseTrace(r io.Reader) (*ExternalTrace, error) { return svcgraph.ParseTrace(r) }

// LayeredApp builds a layered service DAG — levels tiers, each non-leaf
// calling fanout children in one parallel stage — for placement studies
// (FleetConfig.Graph + GraphColocated/GraphSpread/GraphRandom).
func LayeredApp(levels, fanout int, meanComputeMicros float64) *App {
	return svcgraph.Layered(levels, fanout, meanComputeMicros)
}

// GraphColocated places every service on every server (no cross-server
// edges; the regression anchor).
func GraphColocated(services, servers int) *GraphSpec {
	return svcgraph.Colocated(services, servers)
}

// GraphSpread stripes services round-robin, one host each — nearly every
// call edge crosses servers.
func GraphSpread(services, servers int) *GraphSpec { return svcgraph.Spread(services, servers) }

// GraphRandom places each service on `replicas` servers drawn
// deterministically from seed.
func GraphRandom(services, servers, replicas int, seed int64) *GraphSpec {
	return svcgraph.Random(services, servers, replicas, seed)
}

// Fleet types.
type (
	// FleetConfig describes a multi-server cluster (the paper evaluates 10
	// servers per cluster).
	FleetConfig = fleet.Config
	// FleetResult aggregates per-server results.
	FleetResult = fleet.Result
	// FabricStats is the PDES coupling's self-observability (windows,
	// messages, lookahead utilization; FleetResult.Fabric on coupled runs).
	FabricStats = pdes.Stats
	// ControlConfig enables the front-end feedback loops on a coupled fleet
	// (set on FleetConfig.Control): retry with capped exponential backoff,
	// tail hedging, burn-triggered load shedding, and windowed-p99
	// autoscaling — all deterministic over virtual time.
	ControlConfig = control.Config
	// ControlStats is the client-level accounting of a controlled run
	// (FleetResult.Control): one root can cost several server attempts, so
	// these counters — not the per-server sums — are what the client saw.
	ControlStats = control.Stats
)

// Experiment types.
type (
	// ExperimentOptions tunes figure-regeneration fidelity vs runtime.
	ExperimentOptions = experiments.Options
)

// Common durations re-exported for RunConfig fields.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// UManycore returns the paper's default 1024-core μManycore configuration:
// 128 villages of 8 cores in 32 clusters, hierarchical leaf-spine ICN,
// hardware request queues, hardware context switching (Table 2, §4).
func UManycore() Config { return machine.UManycoreConfig() }

// UManycoreTopology returns a μManycore with the Fig 19 topology knobs:
// cores per village × villages per cluster × clusters (default 8×4×32).
func UManycoreTopology(coresPerVillage, villagesPerCluster, clusters int) Config {
	return machine.UManycoreTopologyConfig(coresPerVillage, villagesPerCluster, clusters)
}

// ScaleOut returns the 1024-core ScaleOut baseline: same cores as
// μManycore, global hardware coherence, fat-tree ICN, software scheduling
// and context switching (§5).
func ScaleOut() Config { return machine.ScaleOutConfig() }

// ServerClass returns the IceLake-like big-core baseline with n cores
// (40 = iso-power with μManycore, 128 = iso-area; §5, §6.8).
func ServerClass(n int) Config { return machine.ServerClassConfig(n) }

// SocialNetworkApps returns the eight DeathStarBench-style applications in
// the paper's figure order: Text, SGraph, User, PstStr, UsrMnt, HomeT,
// CPost, UrlShort.
func SocialNetworkApps() []*App { return workload.SocialNetworkApps() }

// SocialNetworkMix returns the default mixed arrival stream over the eight
// request types (§5 methodology; pass as RunConfig.Mix).
func SocialNetworkMix() []MixEntry { return workload.SocialNetworkMix() }

// MuSuiteApps returns the four μSuite-style benchmarks (HDSearch, Router,
// SetAlgebra, Recommend) — the paper's second open-source suite: mid-tier
// services fanning out to leaf pools.
func MuSuiteApps() []*App { return workload.MuSuiteApps() }

// MuSuiteMix returns a balanced arrival mixture over the μSuite benchmarks.
func MuSuiteMix() []MixEntry { return workload.MuSuiteMix() }

// SyntheticApp builds a §6.7 synthetic benchmark: total service time drawn
// from "exponential", "lognormal", or "bimodal" with the given mean in
// microseconds, split across blockingCalls+1 compute segments separated by
// blocking storage accesses. The mean must be positive, finite and at most
// one second, and blockingCalls in [0, 1024]; otherwise SyntheticApp
// returns an error that names the bad value.
func SyntheticApp(dist string, meanMicros float64, blockingCalls int) (*App, error) {
	return workload.SyntheticApp(dist, meanMicros, blockingCalls)
}

// Run executes one server under open-loop load and returns its results.
func Run(cfg Config, rc RunConfig) *Result { return machine.Run(cfg, rc) }

// RunFleet executes the paper's multi-server cluster as one coupled
// simulation: arrivals routed by fc's balancer policy, cross-server child
// RPCs executed on the peer server they target, the inter-server round
// trip paid on the wire legs.
func RunFleet(fc FleetConfig, app *App, totalRPS float64, rc RunConfig, seed int64) *FleetResult {
	return fleet.Run(fc, app, totalRPS, rc, seed)
}

// DefaultFleet wraps a machine config in the paper's 10-server cluster.
func DefaultFleet(m Config) FleetConfig { return fleet.DefaultConfig(m) }

// chipSpec resolves a §5 design name to its chip spec; ok is false for an
// unknown name.
func chipSpec(name string) (spec power.ChipSpec, ok bool) {
	switch name {
	case "uManycore":
		return power.UManycoreChip(), true
	case "ScaleOut":
		return power.ScaleOutChip(), true
	case "ServerClass-40":
		return power.ServerClassChip(40), true
	case "ServerClass-128":
		return power.ServerClassChip(128), true
	}
	return spec, false
}

// PackagePower returns the total package power in watts for the three §5
// designs ("uManycore", "ScaleOut", "ServerClass-40", "ServerClass-128") —
// the CACTI/McPAT stand-in — and 0 for any other name.
func PackagePower(name string) float64 {
	if c, ok := chipSpec(name); ok {
		return c.TotalPower()
	}
	return 0
}

// PackageArea returns the package area in mm² for the same designs, and 0
// for any other name.
func PackageArea(name string) float64 {
	if c, ok := chipSpec(name); ok {
		return c.TotalArea()
	}
	return 0
}

// DefaultExperimentOptions returns full-fidelity experiment settings (the
// EXPERIMENTS.md configuration).
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }
