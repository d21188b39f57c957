package fleet

import (
	"fmt"
	"testing"
	"time"

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
//
// The shorter runs carry a larger share of setup, so ns/event alone
// overstates how the steady state scales. After each timed run the
// benchmark times, untimed, a run of the same shape whose arrival window
// (1 ps) admits no request, which costs what the timed run spends outside
// its events: building and tearing down the fleet. It reports that cost
// per server (setup-ns/server) and the timed runs' cost per event net of
// it (net-ns/event).
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
			rps := float64(size.servers * 8000)
			rc := machine.RunConfig{Duration: size.duration}
			idle := machine.RunConfig{Duration: sim.Picosecond, Drain: sim.Picosecond}
			b.ReportAllocs()
			var events, windows uint64
			var setup time.Duration
			for i := 0; i < b.N; i++ {
				r := Run(fc, app, rps, rc, 1)
				events += r.EventsProcessed
				windows += r.Fabric.Rounds
				b.StopTimer()
				start := time.Now()
				if r := Run(fc, app, rps, idle, 1); r.Submitted != 0 {
					b.Fatalf("the setup run admitted %d requests", r.Submitted)
				}
				setup += time.Since(start)
				b.StartTimer()
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(events), "ns/event")
			b.ReportMetric(ns/float64(windows), "ns/window")
			b.ReportMetric(float64(setup.Nanoseconds())/float64(b.N*size.servers), "setup-ns/server")
			b.ReportMetric((ns-float64(setup.Nanoseconds()))/float64(events), "net-ns/event")
		})
	}
}
