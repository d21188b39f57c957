package fleet

import (
	"testing"

	"umanycore/internal/machine"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// BenchmarkFleetCoupled measures the coupled fleet at perfbench's fleet16
// shape, shortened: 16 uManycore servers behind a p2c dispatcher at 8K RPS
// each for 50 ms. Besides ns/op it reports the cost per fired event and per
// PDES window, the two rates the fleet's fixed costs (barrier work, server
// construction) are spread over.
func BenchmarkFleetCoupled(b *testing.B) {
	const servers = 16
	app := workload.SocialNetworkApps()[0]
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = servers
	fc.LB = "p2c"
	rc := machine.RunConfig{Duration: 50 * sim.Millisecond}
	b.ReportAllocs()
	var events, windows uint64
	for i := 0; i < b.N; i++ {
		r := Run(fc, app, servers*8000, rc, 1)
		events += r.EventsProcessed
		windows += r.Fabric.Rounds
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(events), "ns/event")
	b.ReportMetric(ns/float64(windows), "ns/window")
}
