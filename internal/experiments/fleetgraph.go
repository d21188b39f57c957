package experiments

import (
	"fmt"

	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/svcgraph"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
	"umanycore/internal/workload"
)

// FleetGraphRow is one (placement policy, DAG shape) point of the
// service-graph study: end-to-end tail when an explicit layered service DAG
// is placed across a coupled fleet, so every cross-edge RPC is a real
// cross-server call through the PDES fabric instead of a coin-flip.
type FleetGraphRow struct {
	// Placement names the placement policy (colocated | spread | random).
	Placement string
	// Depth and Fanout describe the layered DAG (svcgraph.Layered).
	Depth  int
	Fanout int
	// Services is the DAG's node count.
	Services int
	// PerServerRPS is the offered load divided by the fleet size.
	PerServerRPS float64
	// TotalRPS is the fleet-wide offered load.
	TotalRPS   float64
	MeanMicros float64
	P99Micros  float64
	TailToAvg  float64
	Completed  uint64
	Rejected   uint64
	// RejectRate is Rejected/(Completed+Rejected).
	RejectRate float64
	// RemoteServed counts cross-edge child RPCs shipped between servers —
	// zero under colocation (every callee is local), and the bulk of the
	// call tree under spread placement.
	RemoteServed uint64
}

// graphShape is one layered-DAG point of the sweep.
type graphShape struct {
	Levels, Fanout int
}

// fleetGraphServers is the study's fleet size; the shapes are chosen so the
// deepest DAG still spans every server under spread placement.
const fleetGraphServers = 4

// fleetGraphShapes are the swept DAGs: all at least 3 levels deep with
// multi-child call stages, from a narrow 7-service tree to a 21-service
// fan-out-4 graph.
var fleetGraphShapes = []graphShape{{3, 2}, {4, 2}, {3, 4}}

// fleetGraphPlacements are the compared placement policies, most-local
// first: colocated replicates every service on every server (no cross-edge
// leaves a machine), spread stripes services round-robin (almost every edge
// crosses), random samples 2 replicas per service.
var fleetGraphPlacements = []string{"colocated", "spread", "random"}

// graphPlacement builds the placement spec for one (policy, app) cell. The
// random policy's replica draw is seeded from the experiment seed via the
// cell's identity, never from execution order.
func graphPlacement(o Options, policy string, services int) *svcgraph.Spec {
	switch policy {
	case "colocated":
		return svcgraph.Colocated(services, fleetGraphServers)
	case "spread":
		return svcgraph.Spread(services, fleetGraphServers)
	case "random":
		return svcgraph.Random(services, fleetGraphServers, 2,
			o.jobSeed(fmt.Sprintf("fleetgraph/placement/%d", services)))
	default:
		panic("no placement policy " + policy)
	}
}

// FleetGraph compares service placements on a coupled fleet driving explicit
// layered service DAGs: the same arrival sequence routed over a graph whose
// cross-server edges are determined by where each service actually runs.
// Colocation keeps the whole call tree on the ingress server; spreading
// turns nearly every edge into a fabric round trip, buying per-service
// isolation at the price of inter-server latency on the critical path. Each
// coupled fleet is one simulation; the sweep parallelizes across cells, and
// rows are bit-identical for any Parallel value.
func FleetGraph(o Options) []FleetGraphRow {
	o = o.normalized()
	perServer := o.Loads[0]
	total := perServer * fleetGraphServers
	type cell struct {
		fc   fleet.Config
		app  *workload.App
		seed int64
	}
	mkCell := func(policy string, shape graphShape) cell {
		app := svcgraph.Layered(shape.Levels, shape.Fanout, 80)
		fc := fleet.DefaultConfig(machine.UManycoreConfig())
		fc.Servers = fleetGraphServers
		fc.LB = "rr"
		fc.Graph = graphPlacement(o, policy, len(app.Catalog.Services))
		// Placements at one shape share a seed: the comparison is paired
		// over identical arrival processes.
		return cell{
			fc:   fc,
			app:  app,
			seed: o.jobSeed(fmt.Sprintf("fleetgraph/d%df%d", shape.Levels, shape.Fanout)),
		}
	}
	grid := sweep.MapCached2(o.Parallel, fleetGraphPlacements, fleetGraphShapes,
		func(policy string, shape graphShape) []byte {
			c := mkCell(policy, shape)
			rc := o.runCfg(c.app, total)
			if rc.Obs != nil || rc.Telemetry != nil || c.fc.NewBalancer != nil {
				return nil
			}
			// The placement spec is part of fc, so each policy keys its own cells.
			return sweepcache.NewKey("fleet/result").
				Any("fc", c.fc).Any("app", c.app).Float("total_rps", total).
				Any("rc", rc).Int("seed", c.seed).Preimage()
		},
		fleetCodec,
		func(policy string, shape graphShape) *fleet.Result {
			c := mkCell(policy, shape)
			return fleet.Run(c.fc, c.app, total, o.runCfg(c.app, total), c.seed)
		})
	rows := make([]FleetGraphRow, 0, len(fleetGraphPlacements)*len(fleetGraphShapes))
	for i, policy := range fleetGraphPlacements {
		for j, shape := range fleetGraphShapes {
			res := grid[i][j]
			app := svcgraph.Layered(shape.Levels, shape.Fanout, 80)
			rows = append(rows, FleetGraphRow{
				Placement:    policy,
				Depth:        shape.Levels,
				Fanout:       shape.Fanout,
				Services:     len(app.Catalog.Services),
				PerServerRPS: perServer,
				TotalRPS:     res.TotalRPS,
				MeanMicros:   res.Latency.Mean,
				P99Micros:    res.Latency.P99,
				TailToAvg:    res.TailToAvg,
				Completed:    res.Completed,
				Rejected:     res.Rejected,
				RejectRate:   rejectRate(res.Completed, res.Rejected),
				RemoteServed: res.RemoteServed,
			})
		}
	}
	return rows
}
