package experiments

import (
	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/sweepcache"
	"umanycore/internal/workload"
)

// Every grid driver builds its sweep cells as values of the cell types
// below (or of its own type, like fig9Side), and sweep.MapCached runs them:
// any installed cell cache (umbench -cache) transparently skips cells it has
// already simulated, and the cached payload is the cell's result through
// encoding/json. A cell holds everything its Run reads — the machine (or
// fleet) config and the exact RunConfig including the app catalog, mix,
// derived seed and measurement windows — and its Key encodes those same
// fields under a driver tag that names the payload schema, so a key cannot
// drift from the computation it addresses. The sweep worker count
// (Options.Parallel) is never a cell field: cached results must be
// bit-identical across -parallel values, like the sweeps that produce them.
//
// Driver tags double as payload-schema names. Cells that run the same
// computation with the same inputs share entries across figures (the e2e
// grid, Fig 15's ladder and §6.8 all store "run/result" cells), while cells
// that store a different projection of the same run ("run/p99") can never
// collide with them.

// runCell is one machine.Run cell ("run/result").
type runCell struct {
	cfg machine.Config
	rc  machine.RunConfig
}

func (c runCell) Key() []byte          { return c.keyAs("run/result") }
func (c runCell) Run() *machine.Result { return machine.Run(c.cfg, c.rc) }

// keyAs encodes the run under a driver tag. Cells with observability
// attached are uncacheable (nil key): their results carry run-scoped spans
// and series that the JSON payload leaves out (json:"-"), so a hit would
// return a result without them.
func (c runCell) keyAs(driver string) []byte {
	if c.rc.Obs != nil || c.rc.Telemetry != nil {
		return nil
	}
	return sweepcache.NewKey(driver).Any("cfg", c.cfg).Any("rc", c.rc).Preimage()
}

// p99Cell is a runCell that stores only the run's P99 ("run/p99").
type p99Cell struct{ runCell }

func (c p99Cell) Key() []byte  { return c.keyAs("run/p99") }
func (c p99Cell) Run() float64 { return c.runCell.Run().Latency.P99 }

// fleetCell is one fleet.Run cell ("fleet/result"). Like runCell it refuses
// a key with observability attached.
type fleetCell struct {
	fc    fleet.Config
	app   *workload.App
	total float64
	rc    machine.RunConfig
	seed  int64
}

func (c fleetCell) Key() []byte {
	if c.rc.Obs != nil || c.rc.Telemetry != nil {
		return nil
	}
	return sweepcache.NewKey("fleet/result").
		Any("fc", c.fc).Any("app", c.app).Float("total_rps", c.total).
		Any("rc", c.rc).Int("seed", c.seed).Preimage()
}

func (c fleetCell) Run() *fleet.Result { return fleet.Run(c.fc, c.app, c.total, c.rc, c.seed) }
