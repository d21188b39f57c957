package experiments

import (
	"fmt"

	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
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

// fleetScaleConfig is the scale study's fleet: n μManycore servers with one
// 3× straggler per four servers — the straggler *fraction* stays constant
// as the fleet grows, so policies are compared on fleets that get bigger,
// not healthier. Cross-server traffic stays at the FleetLB study's 0.1.
func fleetScaleConfig(n int) fleet.Config {
	fc := fleet.DefaultConfig(machine.UManycoreConfig())
	fc.Servers = n
	fc.CrossServerFrac = 0.1
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
	type cell struct {
		fc    fleet.Config
		total float64
		seed  int64
	}
	mkCell := func(policy string, servers int) cell {
		fc := fleetScaleConfig(servers)
		fc.LB = policy
		// Policies at one size share a seed: the comparison is paired over
		// identical arrival processes.
		return cell{
			fc:    fc,
			total: perServer * float64(servers),
			seed:  o.jobSeed(fmt.Sprintf("fleetscale/%d", servers)),
		}
	}
	grid := sweep.MapCached2(o.Parallel, policies, o.FleetSizes,
		func(policy string, servers int) []byte {
			c := mkCell(policy, servers)
			rc := o.runCfg(app, c.total)
			if rc.Obs != nil || rc.Telemetry != nil || c.fc.NewBalancer != nil {
				return nil
			}
			return sweepcache.NewKey("fleet/result").
				Any("fc", c.fc).Any("app", app).Float("total_rps", c.total).
				Any("rc", rc).Int("seed", c.seed).Preimage()
		},
		fleetCodec,
		func(policy string, servers int) *fleet.Result {
			c := mkCell(policy, servers)
			return fleet.Run(c.fc, app, c.total, o.runCfg(app, c.total), c.seed)
		})
	rows := make([]FleetScaleRow, 0, len(policies)*len(o.FleetSizes))
	for i, policy := range policies {
		for j, servers := range o.FleetSizes {
			res := grid[i][j]
			rows = append(rows, FleetScaleRow{
				Policy:          policy,
				Servers:         servers,
				TotalRPS:        res.TotalRPS,
				MeanMicros:      res.Latency.Mean,
				P99Micros:       res.Latency.P99,
				TailToAvg:       res.TailToAvg,
				Completed:       res.Completed,
				Rejected:        res.Rejected,
				RejectRate:      rejectRate(res.Completed, res.Rejected),
				RemoteServed:    res.RemoteServed,
				EventsProcessed: res.EventsProcessed,
			})
		}
	}
	// Annotate each fleet-size column with reject-rate parity across
	// policies, as in FleetLB.
	for j := range o.FleetSizes {
		rates := make([]float64, len(policies))
		for i := range policies {
			rates[i] = rows[i*len(o.FleetSizes)+j].RejectRate
		}
		parity := rejectParity(rates)
		for i := range policies {
			rows[i*len(o.FleetSizes)+j].RejectParity = parity
		}
	}
	return rows
}
