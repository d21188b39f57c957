// Package fleet models the paper's 10-server evaluation cluster (§5): N
// servers behind a front-end load balancer, with a fraction of child RPCs
// crossing servers over the inter-server network (Table 2: 1μs round trip,
// 200GB/s).
//
// Run couples the whole fleet: a fleet-level dispatcher routes each
// arriving request to a server through a pluggable Balancer policy
// (round-robin, uniform-random, least-outstanding, power-of-two-choices),
// and a child RPC that draws the cross-server lottery actually lands on a
// peer server's run queue — it competes for the peer's cores and queues,
// pays the inter-server RTT both ways, and its response resumes the parent
// on the originating server. Per-server Slowdown factors model stragglers
// and heterogeneous fleets.
//
// Multi-server fleets execute as a conservative-lookahead parallel
// discrete-event simulation (internal/pdes): the dispatcher and every
// server are shards on one engine, synchronized in time windows bounded by
// half the inter-server RTT — the minimum latency of any cross-server
// interaction. Cross-server RPCs and dispatches travel as timestamped
// inter-shard messages delivered at window barriers, and the balancer
// routes on queue views snapshotted at barriers (at most one wire delay
// stale — exactly what a physical front-end would know): each barrier
// copies the per-server counts of answered roots, which servers bump as
// they complete or reject one. Results are bit-identical for repeat runs.
// A one-server fleet has no peers and no dispatcher to model: it is a
// plain machine.Run.
package fleet

import (
	"errors"
	"fmt"
	"time"

	"umanycore/internal/control"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/pdes"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/svcgraph"
	"umanycore/internal/telemetry"
	"umanycore/internal/workload"
)

// Config describes the fleet.
type Config struct {
	// Servers is the fleet size (paper: 10).
	Servers int
	// Machine is the per-server processor configuration.
	Machine machine.Config
	// CrossServerFrac is the probability a child RPC targets another
	// server. With instances spread over N servers and uniform routing it
	// is (N-1)/N, but deployments keep call chains local; 0.5 is the
	// default. A one-server fleet has no peers, so the effective fraction
	// clamps to zero when Servers == 1. Ignored in graph mode (Graph below):
	// there, routing is the placement map, not a lottery.
	CrossServerFrac float64
	// Graph, when non-nil, runs the fleet as an explicit service-graph
	// deployment (see internal/svcgraph): Graph.Placement assigns each
	// catalog service to a subset of the servers, every server builds via
	// machine.NewPlaced hosting only its assigned services, a child RPC to
	// a service not hosted locally ships through the PDES fabric to a
	// hosting peer (replacing the CrossServerFrac lottery), and the
	// dispatcher's balancer routes each root over the servers hosting its
	// root service. The trace source rides machine.RunConfig.Replay, so a
	// graph fleet can replay external traces; the control loop is not
	// supported in graph or replay mode. A graph needs Servers >= 2.
	Graph *svcgraph.Spec
	// InterServerRTT is the server-to-server round trip (Table 2: 1μs).
	InterServerRTT sim.Time
	// LB names the load-balancer policy: "rr" (round-robin, the default),
	// "rand", "least", or "p2c" — see ParseLB.
	LB string
	// Slowdown models a heterogeneous fleet: server s's compute runs
	// Slowdown[s]× slower (its PerfFactor is divided by the entry). Missing,
	// zero or negative entries mean 1.0 (no slowdown).
	Slowdown []float64
	// WhatIfPerServer overrides Machine.WhatIf (the fleet-wide virtual
	// stage speedups of causal profiling — see machine.StageSpeedups and
	// internal/whatif) for individual servers: a non-zero entry at index s
	// replaces them on server s (missing or zero entries keep them). Lets
	// a study ask "what if only the straggler's storage were faster".
	WhatIfPerServer []machine.StageSpeedups
	// ShardWorkers is ignored: every coupled run puts all its shards on one
	// engine.
	//
	// Deprecated: the field stays only because the benchmark driver
	// (perfbench) still sets it; it goes when that driver is next changed.
	ShardWorkers int
	// Control, when non-nil and enabled, closes the front-end feedback
	// loops on the coupled Run: retry-on-reject with capped exponential
	// backoff, tail hedging, slo.burn-triggered load shedding, and
	// windowed-p99 autoscaling (see internal/control). Requires Servers >=
	// 2. Client-level accounting lands in Result.Control.
	Control *control.Config
}

// DefaultConfig returns the paper's 10-server fleet around the given
// machine.
func DefaultConfig(m machine.Config) Config {
	return Config{
		Servers:         10,
		Machine:         m,
		CrossServerFrac: 0.5,
		InterServerRTT:  1 * sim.Microsecond,
	}
}

// crossFrac is the effective cross-server probability: zero for a
// one-server fleet (no peers exist) and for graph mode (placement decides
// routing), CrossServerFrac otherwise.
func (fc Config) crossFrac() float64 {
	if fc.Servers <= 1 || fc.Graph != nil {
		return 0
	}
	return fc.CrossServerFrac
}

// balancer instantiates the configured policy (fresh per run). Validate
// has already accepted LB.
func (fc Config) balancer() Balancer {
	mk, _ := ParseLB(fc.LB)
	return mk()
}

// controlOn reports whether a control loop is configured and enabled.
func (fc Config) controlOn() bool { return fc.Control != nil && fc.Control.Enabled() }

// Validate reports why fc cannot run app under rc, naming the cause, or nil
// when it can: every server's machine config and the control config are
// checked here, so a config it accepts runs without a setup panic. Run
// panics with its error; front ends call it first to fail fast with the
// same diagnosis.
func (fc Config) Validate(app *workload.App, rc machine.RunConfig) error {
	if fc.Servers < 1 {
		return fmt.Errorf("fleet: need at least one server (Servers = %d)", fc.Servers)
	}
	if _, err := ParseLB(fc.LB); err != nil {
		return err
	}
	if fc.Graph != nil {
		if fc.Servers < 2 {
			return errors.New("fleet: Config.Graph needs a coupled fleet of >= 2 servers (one server hosts every service, so a graph places nothing)")
		}
		if err := fc.Graph.Validate(app.Catalog, fc.Servers); err != nil {
			return err
		}
		if fc.controlOn() {
			return errors.New("fleet: Config.Graph does not support the control loop (the front end submits typed roots)")
		}
	}
	if rc.Replay != nil && fc.controlOn() {
		return errors.New("fleet: trace replay does not support the control loop (arrivals are the trace's, not the controller's)")
	}
	if fc.controlOn() && fc.Servers < 2 {
		return errors.New("fleet: Config.Control needs a coupled fleet of >= 2 servers")
	}
	if fc.Servers > 1 && fc.InterServerRTT < 2 {
		return fmt.Errorf("fleet: coupled multi-server fleets need InterServerRTT >= 2ps (got %v); it is the PDES lookahead", fc.InterServerRTT)
	}
	if fc.Control != nil {
		if err := fc.Control.Validate(); err != nil {
			return err
		}
	}
	cross := fc.crossFrac()
	src := rc.Normalized()
	src.App = app
	for s := 0; s < fc.Servers; s++ {
		mcfg := fc.serverConfig(s, cross)
		err := mcfg.Validate()
		if err == nil {
			err = machine.CheckHosting(mcfg, src, fc.hostedOn(s))
		}
		if err != nil {
			return fmt.Errorf("fleet: server %d: %w", s, err)
		}
	}
	return nil
}

// serverConfig is server s's machine configuration: the shared base with
// the fleet coupling applied, slowed by Slowdown[s] when configured.
func (fc Config) serverConfig(s int, cross float64) machine.Config {
	mcfg := fc.Machine
	mcfg.RemoteCallFrac = cross
	mcfg.RemoteRTT = fc.InterServerRTT
	if s < len(fc.Slowdown) && fc.Slowdown[s] > 0 {
		mcfg.PerfFactor /= fc.Slowdown[s]
	}
	if s < len(fc.WhatIfPerServer) && !fc.WhatIfPerServer[s].IsZero() {
		mcfg.WhatIf = fc.WhatIfPerServer[s]
	}
	return mcfg
}

// hostedOn is the services server s hosts in graph mode, nil (every
// service its request mix reaches) otherwise.
func (fc Config) hostedOn(s int) []int {
	if fc.Graph == nil {
		return nil
	}
	return fc.Graph.HostedOn(s)
}

// Result aggregates per-server results.
type Result struct {
	Machine                        string
	App                            string
	TotalRPS                       float64
	Latency                        stats.Summary
	TailToAvg                      float64
	Submitted, Completed, Rejected uint64
	Unfinished                     int64
	// Balancer names the routing policy.
	Balancer string
	// RemoteServed counts child RPCs served on behalf of peer servers.
	RemoteServed uint64
	// MeanUtilization averages server core utilization.
	MeanUtilization float64
	// PerServer keeps the individual results.
	PerServer []*machine.Result
	// Obs merges the per-server observability runs (in server order) when
	// the RunConfig enabled the layer; nil otherwise. Obs and Telemetry are
	// never part of a cached cell (see machine.Result).
	Obs *obs.Run `json:"-"`
	// Telemetry merges the per-server telemetry runs (in server order) when
	// the RunConfig enabled the sampler; nil otherwise.
	Telemetry *telemetry.Run `json:"-"`
	// EventsProcessed counts simulation events fired in the run
	// (dispatcher included for coupled multi-server fleets). It is
	// deterministic; EventsProcessed/WallSeconds is the events-per-second
	// figure the PDES speedup curves report.
	EventsProcessed uint64
	// WallSeconds is the run's wall-clock cost. It lives in the
	// non-deterministic domain: equality checks and the cell cache ignore
	// it (cached results carry zero).
	WallSeconds float64 `json:"-"`
	// Fabric is the PDES coupling's self-observability (coupled multi-server
	// fleets only; nil otherwise). It is deterministic, but the cell cache
	// ignores the whole struct like WallSeconds.
	Fabric *pdes.Stats `json:"-"`
	// Control is the dispatcher control loop's client-level accounting
	// (retries, hedges, sheds, scale events, client-perceived latency) when
	// Config.Control enabled it; nil otherwise. Server-level fields above
	// keep per-attempt semantics: with retries and hedging one client root
	// can appear as several server submissions.
	Control *control.Stats
}

// Run drives the coupled fleet at totalRPS: every server is a shard of one
// simulation engine (coupled conservatively in time — see the package
// comment), a Balancer routes each arrival, and cross-server child RPCs
// execute on the peer they target. Deterministic in (fc, app, totalRPS, rc,
// seed) alone — worker counts and wall-clock never enter. Run panics with
// Validate's error on a config it cannot run.
func Run(fc Config, app *workload.App, totalRPS float64, rc machine.RunConfig, seed int64) *Result {
	if err := fc.Validate(app, rc); err != nil {
		panic(err)
	}
	if fc.Servers > 1 {
		return runCoupled(fc, app, totalRPS, rc, seed)
	}
	// One server has no peers (the cross-server fraction clamps to zero)
	// and nothing to route, so the fleet is a plain machine.Run of server 0.
	start := time.Now()
	src := rc
	src.App = app
	src.RPS = totalRPS
	src.Seed = seed
	res := machine.Run(fc.serverConfig(0, 0), src)
	out := aggregate(fc, app, totalRPS, rc, []*machine.Result{res})
	out.Balancer = fc.balancer().Name()
	out.EventsProcessed = res.Events
	out.WallSeconds = time.Since(start).Seconds()
	return out
}

// aggregate merges per-server results (in server order) into one fleet
// result.
func aggregate(fc Config, app *workload.App, totalRPS float64, rc machine.RunConfig, perServer []*machine.Result) *Result {
	out := &Result{Machine: fc.Machine.Name, App: app.Name, TotalRPS: totalRPS}
	var utilSum float64
	for _, res := range perServer {
		out.PerServer = append(out.PerServer, res)
		out.Submitted += res.Submitted
		out.Completed += res.Completed
		out.Rejected += res.Rejected
		out.Unfinished += res.Unfinished
		utilSum += res.Utilization
	}
	if len(perServer) == 1 {
		// Nothing to merge — reuse the server's own summary, whose mean was
		// accumulated in arrival order (re-adding the sorted values would
		// round the sum differently in the last bit).
		out.Latency = perServer[0].Latency
		out.TailToAvg = perServer[0].TailToAvg
	} else {
		// Every server's sample is already sorted by its own summary, so
		// the fleet sample is their k-way merge.
		samples := make([]*stats.Sample, len(perServer))
		for i, res := range perServer {
			samples[i] = res.Sample
		}
		merged := stats.Merge(samples)
		out.Latency = merged.Summarize()
		out.TailToAvg = merged.TailToAvg()
	}
	out.MeanUtilization = utilSum / float64(fc.Servers)
	if rc.Obs != nil {
		// Per-server runs merge on the server-order slice, so the fleet
		// trace never depends on completion or worker order.
		runs := make([]*obs.Run, len(perServer))
		for i, res := range perServer {
			runs[i] = res.Obs
		}
		out.Obs = obs.Merge(runs)
	}
	if rc.Telemetry != nil {
		// Same order contract as Obs: merge on the server-order slice, never
		// on completion order.
		runs := make([]*telemetry.Run, len(perServer))
		for i, res := range perServer {
			runs[i] = res.Telemetry
		}
		out.Telemetry = telemetry.Merge(runs)
	}
	return out
}
