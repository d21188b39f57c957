package experiments

import (
	"fmt"

	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
)

// FleetLBRow is one (policy, per-server load) point of the load-balancer
// study on the coupled fleet: end-to-end latency when requests are routed
// by a real front-end policy instead of the ideal uniform split.
type FleetLBRow struct {
	Policy string
	// PerServerRPS is the offered load divided by the fleet size (the
	// x-axis shared with the paper's per-server load points).
	PerServerRPS float64
	// TotalRPS is the fleet-wide offered load.
	TotalRPS   float64
	MeanMicros float64
	P99Micros  float64
	TailToAvg  float64
	// Completed and Rejected split the responded requests; the latency
	// columns above are computed over Completed only, so without the
	// Rejected/RejectRate columns a config that sheds heavily would look
	// faster than one that serves everything.
	Completed uint64
	// Rejected counts requests dropped at admission across the fleet.
	Rejected uint64
	// RejectRate is Rejected/(Completed+Rejected).
	RejectRate float64
	// RejectParity marks whether every policy at this row's load point
	// responded at (near-)equal reject rates: when false, the latency
	// comparison across policies at this load is not apples-to-apples —
	// some policy is faster partly because it answered fewer requests.
	RejectParity bool
	// RemoteServed counts cross-server child RPCs shipped between servers.
	RemoteServed uint64
}

// rejectRate is the goodput complement: rejected over responded.
func rejectRate(completed, rejected uint64) float64 {
	if resp := completed + rejected; resp > 0 {
		return float64(rejected) / float64(resp)
	}
	return 0
}

// rejectParity reports whether a paired policy comparison happens at equal
// reject rates: true when the spread across the group stays within half a
// percentage point.
func rejectParity(rates []float64) bool {
	lo, hi := rates[0], rates[0]
	for _, r := range rates[1:] {
		lo, hi = min(lo, r), max(hi, r)
	}
	return hi-lo <= 0.005
}

// fleetLBConfig is the study's fleet: μManycore servers, one straggler
// running 3× slower — the skew that separates queue-aware policies from
// oblivious ones. Call chains stay mostly local (cross-server fraction 0.1
// instead of the default 0.5): with heavy cross-server fan-out every
// request samples the straggler through its children no matter where the
// balancer put it, which washes out the routing comparison the study is
// about.
func fleetLBConfig() fleet.Config {
	fc := fleet.DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 4
	fc.Slowdown = []float64{1, 1, 1, 3}
	fc.CrossServerFrac = 0.1
	return fc
}

// FleetLB compares load-balancer policies on a skewed coupled fleet: P99 vs
// offered load for round-robin, uniform-random, least-outstanding and
// power-of-two-choices routing over the same arrival sequences. Uniform
// random keeps sending the straggler its full 1/N share, so its queue —
// and the fleet tail — grows with load; queue-aware policies steer around
// it. Each coupled fleet is one single-threaded simulation; the sweep
// parallelizes across (policy, load) cells, and rows are bit-identical for
// any Parallel value.
func FleetLB(o Options) []FleetLBRow {
	o = o.normalized()
	app := appNamed("HomeT")
	policies := fleet.Policies()
	type cell struct {
		fc    fleet.Config
		total float64
		seed  int64
	}
	mkCell := func(policy string, perServer float64) cell {
		fc := fleetLBConfig()
		fc.LB = policy
		// Policies at one load share a seed: the comparison is paired
		// over identical arrival processes.
		return cell{
			fc:    fc,
			total: perServer * float64(fc.Servers),
			seed:  o.jobSeed(fmt.Sprintf("fleetlb/%g", perServer)),
		}
	}
	grid := sweep.MapCached2(o.Parallel, policies, o.Loads,
		func(policy string, perServer float64) []byte {
			c := mkCell(policy, perServer)
			rc := o.runCfg(app, c.total)
			if rc.Obs != nil || rc.Telemetry != nil || c.fc.NewBalancer != nil {
				return nil
			}
			return sweepcache.NewKey("fleet/result").
				Any("fc", c.fc).Any("app", app).Float("total_rps", c.total).
				Any("rc", rc).Int("seed", c.seed).Preimage()
		},
		fleetCodec,
		func(policy string, perServer float64) *fleet.Result {
			c := mkCell(policy, perServer)
			return fleet.Run(c.fc, app, c.total, o.runCfg(app, c.total), c.seed)
		})
	rows := make([]FleetLBRow, 0, len(policies)*len(o.Loads))
	for i, policy := range policies {
		for j, perServer := range o.Loads {
			res := grid[i][j]
			rows = append(rows, FleetLBRow{
				Policy:       policy,
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
	// Annotate each load column: aware-vs-oblivious latency comparisons are
	// only apples-to-apples when every policy responded at the same reject
	// rate. Policies at one load share arrivals, so any spread here means
	// routing itself changed who got served.
	for j := range o.Loads {
		rates := make([]float64, len(policies))
		for i := range policies {
			rates[i] = rows[i*len(o.Loads)+j].RejectRate
		}
		parity := rejectParity(rates)
		for i := range policies {
			rows[i*len(o.Loads)+j].RejectParity = parity
		}
	}
	return rows
}
