package experiments

import (
	"fmt"

	"umanycore/internal/fleet"
	"umanycore/internal/sweep"
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

// columnParity annotates a policy-major grid of fleet results (cols
// columns per policy) with each column's rejectParity. Aware-vs-oblivious
// latency comparisons are only apples-to-apples when every policy responded
// at the same reject rate; policies in one column share arrivals, so any
// spread means routing itself changed who got served.
func columnParity(results []*fleet.Result, cols int) []bool {
	parity := make([]bool, cols)
	for j := range parity {
		var rates []float64
		for k := j; k < len(results); k += cols {
			rates = append(rates, rejectRate(results[k].Completed, results[k].Rejected))
		}
		parity[j] = rejectParity(rates)
	}
	return parity
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
	var cells []fleetCell
	for _, policy := range policies {
		for _, perServer := range o.Loads {
			fc := fleetScaleConfig(4)
			fc.LB = policy
			total := perServer * float64(fc.Servers)
			// Policies at one load share a seed: the comparison is paired
			// over identical arrival processes.
			seed := o.jobSeed(fmt.Sprintf("fleetlb/%g", perServer))
			cells = append(cells, fleetCell{fc, app, total, o.runCfg(app, total), seed})
		}
	}
	results := sweep.MapCached(o.Parallel, cells)
	parity := columnParity(results, len(o.Loads))
	rows := make([]FleetLBRow, len(cells))
	for k, res := range results {
		rows[k] = FleetLBRow{
			Policy:       cells[k].fc.LB,
			PerServerRPS: o.Loads[k%len(o.Loads)],
			TotalRPS:     res.TotalRPS,
			MeanMicros:   res.Latency.Mean,
			P99Micros:    res.Latency.P99,
			TailToAvg:    res.TailToAvg,
			Completed:    res.Completed,
			Rejected:     res.Rejected,
			RejectRate:   rejectRate(res.Completed, res.Rejected),
			RejectParity: parity[k%len(o.Loads)],
			RemoteServed: res.RemoteServed,
		}
	}
	return rows
}
