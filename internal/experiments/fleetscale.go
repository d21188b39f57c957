package experiments

import (
	"fmt"

	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/sweep"
)

// FleetScaleRow is one (policy, fleet size) point of the scale study: the
// fleet tail under a real routing policy as the fleet grows from a rack's
// worth of μManycore servers toward cluster scale.
type FleetScaleRow struct {
	Policy  string
	Servers int
	// TotalRPS is the fleet-wide offered load (per-server load is fixed
	// across sizes, so the x-axis is purely fleet size).
	TotalRPS   float64
	MeanMicros float64
	P99Micros  float64
	TailToAvg  float64
	// Completed/Rejected split responded requests; latency columns cover
	// Completed only, so RejectRate is what keeps heavy shedding from
	// masquerading as speed.
	Completed  uint64
	Rejected   uint64
	RejectRate float64
	// RejectParity marks whether every policy at this fleet size responded
	// at (near-)equal reject rates; false flags a latency comparison made
	// on unequal goodput.
	RejectParity bool
	// RemoteServed counts cross-server child RPCs shipped between servers.
	RemoteServed uint64
	// EventsProcessed is the run's total fired simulation events — the
	// numerator of the PDES events/second throughput metric.
	EventsProcessed uint64
}

// fleetScaleConfig is the straggler studies' fleet: n μManycore servers
// with one 3× straggler per four servers — the skew that separates
// queue-aware policies from oblivious ones. FleetLB runs it at n = 4; the
// scale study keeps the straggler *fraction* constant as the fleet grows,
// so policies are compared on fleets that get bigger, not healthier. Call
// chains stay mostly local (cross-server fraction 0.1 instead of the
// default 0.5): with heavy cross-server fan-out every request samples a
// straggler through its children no matter where the balancer put it,
// which washes out the routing comparison the studies are about.
func fleetScaleConfig(n int) fleet.Config {
	fc := fleet.DefaultConfig(machine.UManycoreConfig())
	fc.Servers = n
	fc.Machine.RemoteCallFrac = 0.1
	fc.Slowdown = make([]float64, n)
	for s := range fc.Slowdown {
		fc.Slowdown[s] = 1
		if s%4 == 3 {
			fc.Slowdown[s] = 3
		}
	}
	return fc
}

// FleetScale sweeps the coupled fleet across o.FleetSizes at a fixed
// per-server load (the middle o.Loads point) for every balancer policy.
// This is the tail-at-scale figure: oblivious policies (rr, rand) keep
// sending every straggler its full 1/N share, so the fleet P99 stays pinned
// to straggler service time at every size, while queue-aware policies
// (least, p2c) steer around them — and the gap between p2c's two samples
// and least's full scan is only visible once the fleet is large. Each cell
// is one coupled PDES simulation; cells fan out across the sweep pool and
// rows are bit-identical for any Parallel value.
func FleetScale(o Options) []FleetScaleRow {
	o = o.normalized()
	app := appNamed("HomeT")
	perServer := o.Loads[len(o.Loads)/2]
	policies := fleet.Policies()
	var cells []fleetCell
	for _, policy := range policies {
		for _, servers := range o.FleetSizes {
			fc := fleetScaleConfig(servers)
			fc.LB = policy
			total := perServer * float64(servers)
			// Policies at one size share a seed: the comparison is paired
			// over identical arrival processes.
			seed := o.jobSeed(fmt.Sprintf("fleetscale/%d", servers))
			cells = append(cells, fleetCell{fc, app, total, o.runCfg(app, total), seed})
		}
	}
	results := sweep.MapCached(o.Parallel, cells)
	parity := columnParity(results, len(o.FleetSizes))
	rows := make([]FleetScaleRow, len(cells))
	for k, res := range results {
		rows[k] = FleetScaleRow{
			Policy:          cells[k].fc.LB,
			Servers:         cells[k].fc.Servers,
			TotalRPS:        res.TotalRPS,
			MeanMicros:      res.Latency.Mean,
			P99Micros:       res.Latency.P99,
			TailToAvg:       res.TailToAvg,
			Completed:       res.Completed,
			Rejected:        res.Rejected,
			RejectRate:      rejectRate(res.Completed, res.Rejected),
			RejectParity:    parity[k%len(o.FleetSizes)],
			RemoteServed:    res.RemoteServed,
			EventsProcessed: res.EventsProcessed,
		}
	}
	return rows
}
