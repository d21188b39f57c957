package experiments

import (
	"fmt"

	"umanycore/internal/control"
	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/sim"
	"umanycore/internal/sweep"
	"umanycore/internal/workload"
)

// FleetControlRow is one (scenario, variant, load) point of the closed-loop
// fleet-control study: what the front-end's feedback loops — retry with
// capped backoff, tail hedging, burn-triggered shedding and p99 autoscaling
// — do to client-perceived goodput and tail latency on the coupled fleet.
//
// Counters are client-level whenever a controller ran (one client root can
// cost several server attempts) and server-level for the uncontrolled
// baseline, where the two coincide.
type FleetControlRow struct {
	// Scenario is the study leg: "storm" (retry metastability), "hedge"
	// (hedging win/loss vs deadline), or "scale" (scale-up lag vs bursts).
	Scenario string
	// Variant names the control policy within the scenario.
	Variant string
	// PerServerRPS is the offered load per server; TotalRPS fleet-wide.
	PerServerRPS float64
	TotalRPS     float64
	MeanMicros   float64
	P99Micros    float64
	// Completed and Rejected count client roots; RejectRate is
	// Rejected/(Completed+Rejected) — the goodput complement the latency
	// columns alone hide.
	Completed  uint64
	Rejected   uint64
	RejectRate float64
	// GoodputRPS is completed client roots per second of arrival window.
	GoodputRPS float64
	// Control-loop activity: re-dispatches, dispatcher drops, hedge
	// dispatches and their win/waste split, autoscaler growth events, and
	// the final routable set.
	Retries       uint64
	Shed          uint64
	Hedges        uint64
	HedgeWins     uint64
	HedgeWaste    uint64
	ScaleUps      uint64
	ActiveServers int
}

// fleetControlConfig is the study's fleet: small μManycore-policy servers
// (16 cores, tiny hardware RQs and NIC buffers) that saturate and reject at
// tens of kRPS, so the control loops have real rejections to work with at
// simulation costs a sweep can afford.
func fleetControlConfig(servers int) fleet.Config {
	cfg := machine.UManycoreConfig()
	cfg.Cores = 16
	cfg.Domains = 2
	cfg.RQCapacity = 4
	cfg.NICBufCapacity = 4
	cfg.LeafSpineCfg.Pods = 1
	cfg.LeafSpineCfg.LeavesPerPod = 2
	fc := fleet.DefaultConfig(cfg)
	fc.Servers = servers
	fc.Machine.RemoteCallFrac = 0.25
	return fc
}

// controlVariant is one policy point of a scenario.
type controlVariant struct {
	name string
	ctl  *control.Config
}

// stormVariants is the retry-storm ladder: no retries, uncapped immediate
// retries (the storm: every reject instantly re-offered while the queue
// that rejected it is still full), capped exponential backoff with jitter,
// and capped backoff plus burn-triggered shedding (the escape).
func stormVariants() []controlVariant {
	capped := control.Config{
		MaxRetries:  3,
		RetryBase:   100 * sim.Microsecond,
		RetryCap:    800 * sim.Microsecond,
		RetryJitter: 0.5,
	}
	shed := capped
	shed.ShedProb = 0.5
	shed.ShedSLOMicros = 1500
	shed.ShedWindow = sim.Millisecond
	return []controlVariant{
		{"none", nil},
		{"uncapped", &control.Config{MaxRetries: 3}},
		{"capped", &capped},
		{"capped+shed", &shed},
	}
}

// hedgeVariants sweeps the hedge deadline on a straggler fleet; "off" is
// the unhedged baseline.
func hedgeVariants() []controlVariant {
	out := []controlVariant{{"off", nil}}
	for _, d := range []sim.Time{500 * sim.Microsecond, sim.Millisecond, 2 * sim.Millisecond} {
		out = append(out, controlVariant{
			name: fmt.Sprintf("hedge=%gus", d.Micros()),
			ctl:  &control.Config{HedgeAfter: d},
		})
	}
	return out
}

// scaleVariants sweeps the autoscaler's cold-start lag under bursty (MMPP)
// arrivals; "static" keeps the whole fleet active with no controller.
func scaleVariants() []controlVariant {
	out := []controlVariant{{"static", nil}}
	for _, lag := range []sim.Time{0, 2 * sim.Millisecond, 10 * sim.Millisecond, 25 * sim.Millisecond} {
		out = append(out, controlVariant{
			name: fmt.Sprintf("lag=%gms", lag.Millis()),
			ctl: &control.Config{
				ScaleMin:       2,
				ScaleP99Micros: 1500,
				ScaleLag:       lag,
				ScaleWindow:    5 * sim.Millisecond,
			},
		})
	}
	return out
}

// controlScenario is one leg of the figure: a fleet shape, an app, a load
// axis and a variant ladder.
type controlScenario struct {
	name     string
	servers  int
	loads    []float64 // per-server RPS
	variants []controlVariant
	shape    func(fc *fleet.Config)
	arrivals machine.ArrivalKind
}

// controlScenarios returns the figure's three legs. The synthetic
// deterministic-500μs app keeps each server's capacity legible (16 cores /
// 500μs ≈ 32K RPS), so the storm loads straddle saturation by construction.
func controlScenarios() []controlScenario {
	return []controlScenario{
		{
			// Loads straddle the ~12K RPS per-server saturation knee: below
			// it retries are idle, at it backoff decorrelation pays, past it
			// the capacity deficit dominates every policy.
			name:     "storm",
			servers:  3,
			loads:    []float64{11000, 13000, 15000},
			variants: stormVariants(),
		},
		{
			name:     "hedge",
			servers:  4,
			loads:    []float64{4000},
			variants: hedgeVariants(),
			shape: func(fc *fleet.Config) {
				// One 3× straggler — the queue the hedge escapes — with the
				// default (deep) admission queues restored: the hedge study
				// wants a clean straggler tail, not admission rejects.
				fc.Slowdown = []float64{1, 1, 1, 3}
				fc.Machine.RQCapacity = 64
				fc.Machine.NICBufCapacity = 256
			},
		},
		{
			name:     "scale",
			servers:  6,
			loads:    []float64{12000},
			variants: scaleVariants(),
			arrivals: machine.BurstyArrivals,
		},
	}
}

// FleetControl is the closed-loop control figure: three scenarios on the
// coupled fleet, each comparing control-policy variants over identical
// arrival processes (variants at one load share a seed).
//
//   - storm: at the saturation knee, uncapped immediate retries re-offer
//     every reject while the queue that produced it is still full — the
//     metastable regime here is pure churn: dispatch attempts multiply and
//     client latency inflates while the reject rate barely moves. (A §4.3
//     admission reject turns around at the NIC and costs the server
//     nothing, so the storm cannot also collapse goodput the way retries
//     that burn server work would.) Capped backoff + jitter decorrelates
//     the retry from the full-queue instant — rejects drop below even the
//     no-retry baseline — and burn-triggered shedding drops the excess at
//     the dispatcher, cheaper for the client than a server round trip.
//   - hedge: on a straggler fleet, a deadline-triggered duplicate cuts the
//     tail for a quantified HedgeWaste overhead; too-aggressive deadlines
//     buy little tail for a lot of waste.
//   - scale: under bursty MMPP arrivals, the autoscaler's cold-start lag
//     decides how much of each burst the tail eats before fresh capacity
//     becomes routable.
//
// Every cell is one coupled PDES run; cells fan out across the sweep pool
// and rows are bit-identical for any Parallel value, warm or cold cache.
func FleetControl(o Options) []FleetControlRow {
	o = o.normalized()
	app, err := workload.SyntheticApp("deterministic", 500, 2)
	if err != nil {
		panic(err)
	}
	var rows []FleetControlRow
	for _, sc := range controlScenarios() {
		var cells []fleetCell
		for _, v := range sc.variants {
			for _, perServer := range sc.loads {
				fc := fleetControlConfig(sc.servers)
				if sc.shape != nil {
					sc.shape(&fc)
				}
				// The Control pointer is in the key: policy is simulation
				// content.
				fc.Control = v.ctl
				total := perServer * float64(sc.servers)
				rc := o.runCfg(app, total)
				rc.Arrivals = sc.arrivals
				// Variants at one load share a seed: the comparison is
				// paired over identical arrival processes.
				seed := o.jobSeed(fmt.Sprintf("fleetcontrol/%s/%g", sc.name, perServer))
				cells = append(cells, fleetCell{fc, app, total, rc, seed})
			}
		}
		results := sweep.MapCached(o.Parallel, cells)
		for k, res := range results {
			v := sc.variants[k/len(sc.loads)]
			rows = append(rows, controlRow(sc.name, v.name, sc.loads[k%len(sc.loads)], res, o))
		}
	}
	return rows
}

// controlRow projects one fleet result onto the figure's columns, reading
// client-level accounting when a controller ran and server-level otherwise
// (for an uncontrolled fleet the two views coincide: one root, one attempt).
func controlRow(scenario, variant string, perServer float64, res *fleet.Result, o Options) FleetControlRow {
	row := FleetControlRow{
		Scenario:      scenario,
		Variant:       variant,
		PerServerRPS:  perServer,
		TotalRPS:      res.TotalRPS,
		MeanMicros:    res.Latency.Mean,
		P99Micros:     res.Latency.P99,
		Completed:     res.Completed,
		Rejected:      res.Rejected,
		ActiveServers: len(res.PerServer),
	}
	if c := res.Control; c != nil {
		row.MeanMicros = c.Latency.Mean
		row.P99Micros = c.Latency.P99
		row.Completed = c.Completed
		row.Rejected = c.Rejected
		row.RejectRate = c.RejectRate()
		row.Retries = c.Retries
		row.Shed = c.Shed
		row.Hedges = c.Hedges
		row.HedgeWins = c.HedgeWins
		row.HedgeWaste = c.HedgeWaste
		row.ScaleUps = c.ScaleUps
		row.ActiveServers = c.ActiveServers
	} else if resp := res.Completed + res.Rejected; resp > 0 {
		row.RejectRate = float64(res.Rejected) / float64(resp)
	}
	row.GoodputRPS = float64(row.Completed) / o.Duration.Seconds()
	return row
}
