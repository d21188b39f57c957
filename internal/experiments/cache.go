package experiments

import (
	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/sweepcache"
	"umanycore/internal/workload"
)

// Every grid driver keys its sweep cells with a preimage, so any installed
// cell cache (umbench -cache) transparently skips cells it has already
// simulated; the cached payload is the cell's result through encoding/json.
// A cell's preimage canonically encodes everything the cell reads — the
// machine (or fleet) config and the exact RunConfig including the app
// catalog, mix, derived seed and measurement windows — under a driver tag
// that names the payload schema. The sweep worker count (Options.Parallel)
// never enters a preimage: cached results must be bit-identical across
// -parallel values, like the sweeps that produce them.
//
// Driver tags double as payload-schema names. Cells that run the same
// computation with the same inputs share entries across figures (the e2e
// grid, Fig 15's ladder and §6.8 all store "run/result" cells), while cells
// that store a different projection of the same run ("run/p99") can never
// collide with them.

// runPre encodes one machine.Run cell. Cells with observability attached
// are uncacheable (nil preimage): their results carry run-scoped spans and
// series that the JSON payload leaves out (json:"-"), so a hit would return
// a result without them. The preimage helpers are the one place this rule
// lives.
func runPre(driver string, cfg machine.Config, rc machine.RunConfig) []byte {
	if rc.Obs != nil || rc.Telemetry != nil {
		return nil
	}
	return sweepcache.NewKey(driver).Any("cfg", cfg).Any("rc", rc).Preimage()
}

// fleetPre encodes one fleet.Run cell ("fleet/result"). Like runPre it
// refuses cells with observability attached, and it refuses a live
// NewBalancer closure, which has no canonical form.
func fleetPre(fc fleet.Config, app *workload.App, total float64, rc machine.RunConfig, seed int64) []byte {
	if rc.Obs != nil || rc.Telemetry != nil || fc.NewBalancer != nil {
		return nil
	}
	return sweepcache.NewKey("fleet/result").
		Any("fc", fc).Any("app", app).Float("total_rps", total).
		Any("rc", rc).Int("seed", seed).Preimage()
}
