package fleet

import (
	"fmt"
	"testing"

	"umanycore/internal/machine"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// BenchmarkFleetCoupled measures the coupled fleet at perfbench's fleet16
// shape, shortened, and at two larger sizes: uManycore servers behind a p2c
// dispatcher at 8K RPS each, 16 servers for 50 ms, 64 for 20 ms and 256 for
// 5 ms (shorter runs keep one iteration of every size within a few
// seconds). Besides ns/op and B/op it reports the cost per fired event and
// per PDES window, the two rates the fleet's fixed costs (barrier work,
// server construction) are spread over; ns/event across the sizes is the
// fleet's scaling curve.
func BenchmarkFleetCoupled(b *testing.B) {
	app := workload.SocialNetworkApps()[0]
	for _, size := range []struct {
		servers  int
		duration sim.Time
	}{
		{16, 50 * sim.Millisecond},
		{64, 20 * sim.Millisecond},
		{256, 5 * sim.Millisecond},
	} {
		b.Run(fmt.Sprintf("servers=%d", size.servers), func(b *testing.B) {
			fc := DefaultConfig(machine.UManycoreConfig())
			fc.Servers = size.servers
			fc.LB = "p2c"
			rc := machine.RunConfig{Duration: size.duration}
			b.ReportAllocs()
			var events, windows uint64
			for i := 0; i < b.N; i++ {
				r := Run(fc, app, float64(size.servers*8000), rc, 1)
				events += r.EventsProcessed
				windows += r.Fabric.Rounds
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(events), "ns/event")
			b.ReportMetric(ns/float64(windows), "ns/window")
		})
	}
}
