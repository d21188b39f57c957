package experiments

import (
	"math/rand"

	"umanycore/internal/cachesim"
	"umanycore/internal/stats"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
	"umanycore/internal/uarch"
	"umanycore/internal/workload"
)

// Fig1 reproduces Figure 1: speedups of four published microarchitectural
// optimizations on monolithic vs microservice workloads.
func Fig1(o Options) []uarch.Fig1Result {
	o = o.normalized()
	return uarch.RunFig1(150000, o.Seed)
}

// Fig2 reproduces Figure 2: the CDF of requests-per-second received by a
// server in the Alibaba-like trace. Returns CDF points over [0, 2000] RPS.
func Fig2(o Options) []stats.CDFPoint {
	o = o.normalized()
	g := workload.NewTraceGen(o.Seed)
	var s stats.Sample
	for _, c := range g.ServerLoad(20000) {
		s.Add(float64(c))
	}
	pts := make([]stats.CDFPoint, 0, 21)
	for x := 0.0; x <= 2000; x += 100 {
		pts = append(pts, stats.CDFPoint{X: x, P: s.CDFAt(x)})
	}
	return pts
}

// Fig4 reproduces Figure 4: the CDF of per-request CPU utilization.
func Fig4(o Options) []stats.CDFPoint {
	o = o.normalized()
	g := workload.NewTraceGen(o.Seed + 1)
	var s stats.Sample
	for _, r := range g.Requests(50000) {
		s.Add(r.CPUUtil)
	}
	pts := make([]stats.CDFPoint, 0, 14)
	for x := 0.0; x <= 0.65; x += 0.05 {
		pts = append(pts, stats.CDFPoint{X: x, P: s.CDFAt(x)})
	}
	return pts
}

// Fig5 reproduces Figure 5: the CDF of RPC invocations per request.
func Fig5(o Options) []stats.CDFPoint {
	o = o.normalized()
	g := workload.NewTraceGen(o.Seed + 2)
	var s stats.Sample
	for _, r := range g.Requests(50000) {
		s.Add(float64(r.RPCs))
	}
	pts := make([]stats.CDFPoint, 0, 41)
	for x := 0.0; x <= 40; x += 2 {
		pts = append(pts, stats.CDFPoint{X: x, P: s.CDFAt(x)})
	}
	return pts
}

// Fig8 reproduces Figure 8: handler-handler and handler-init footprint
// sharing at page and line granularity.
func Fig8(o Options) []workload.Fig8Row {
	o = o.normalized()
	return workload.RunFig8(workload.DefaultFootprintConfig(), 50, o.Seed)
}

// Fig9Row is one bar of Figure 9: the hit rate of one structure for one
// access class.
type Fig9Row struct {
	Class     string // "Data" or "Instructions"
	Structure string // L1TLB, L1Cache, L2TLB, L2Cache
	HitRate   float64
}

// fig9DataSide simulates the data-access stream: the 0.5MB handler working
// set of §3.5, plus occasional reads of the instance's initialization state
// (the ~16MB snapshot image handlers share read-only) — the accesses that
// exercise the L2 TLB and L2 cache.
func fig9DataSide(seed int64, n int) []Fig9Row {
	r := rand.New(rand.NewSource(seed))
	dTrace := uarch.GenDataTrace(uarch.Microservice, n, r)
	const instanceState = 16 << 20
	for i := range dTrace {
		if r.Float64() < 0.02 {
			dTrace[i].Addr = cachesim.Addr(1<<28 + r.Intn(instanceState))
		}
	}
	l1d := cachesim.New(cachesim.Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, RoundTripCycles: 2})
	l2d := cachesim.New(cachesim.Config{Name: "L2D", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, RoundTripCycles: 16})
	l1dtlb := cachesim.NewTLB(cachesim.TLBConfig{Name: "L1DTLB", Entries: 256, Ways: 4, RoundTripCycles: 2})
	l2dtlb := cachesim.NewTLB(cachesim.TLBConfig{Name: "L2DTLB", Entries: 2048, Ways: 12, RoundTripCycles: 12})
	for _, a := range dTrace {
		if !l1dtlb.Access(a.Addr) {
			l2dtlb.Access(a.Addr)
		}
		if !l1d.Access(a.Addr) {
			l2d.Access(a.Addr)
		}
	}
	return []Fig9Row{
		{"Data", "L1TLB", l1dtlb.Stats().HitRate()},
		{"Data", "L1Cache", l1d.Stats.HitRate()},
		{"Data", "L2TLB", l2dtlb.Stats().HitRate()},
		{"Data", "L2Cache", l2d.Stats.HitRate()},
	}
}

// fig9InstrSide simulates the instruction stream: the handler code
// footprint, plus rare excursions into the instance's shared library/runtime
// code (several MB).
func fig9InstrSide(seed int64, n int) []Fig9Row {
	r := rand.New(rand.NewSource(seed))
	iTrace := uarch.GenInstrTrace(uarch.Microservice, n, r)
	const libraryCode = 8 << 20
	for i := range iTrace {
		if r.Float64() < 0.015 {
			iTrace[i] = cachesim.Addr(1<<29 + r.Intn(libraryCode)&^63)
		}
	}
	l1i := cachesim.New(cachesim.Config{Name: "L1I", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, RoundTripCycles: 2})
	l2i := cachesim.New(cachesim.Config{Name: "L2I", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, RoundTripCycles: 16})
	l1itlb := cachesim.NewTLB(cachesim.TLBConfig{Name: "L1ITLB", Entries: 128, Ways: 4, RoundTripCycles: 2})
	l2itlb := cachesim.NewTLB(cachesim.TLBConfig{Name: "L2ITLB", Entries: 1024, Ways: 8, RoundTripCycles: 12})
	for _, a := range iTrace {
		if !l1itlb.Access(a) {
			l2itlb.Access(a)
		}
		if !l1i.Access(a) {
			l2i.Access(a)
		}
	}
	return []Fig9Row{
		{"Instructions", "L1TLB", l1itlb.Stats().HitRate()},
		{"Instructions", "L1Cache", l1i.Stats.HitRate()},
		{"Instructions", "L2TLB", l2itlb.Stats().HitRate()},
		{"Instructions", "L2Cache", l2i.Stats.HitRate()},
	}
}

// Fig9 reproduces Figure 9: L1/L2 TLB and cache hit rates for microservice
// handler access streams on the Table 2 hierarchy. The data and instruction
// sides are independent trace simulations with their own derived streams, so
// they run as two sweep jobs.
func Fig9(o Options) []Fig9Row {
	o = o.normalized()
	sides := []fig9Side{
		{"data", o.jobSeed("fig9/data"), fig9TraceLen},
		{"instr", o.jobSeed("fig9/instr"), fig9TraceLen},
	}
	parts := sweep.MapCached(o.Parallel, sides)
	return append(parts[0], parts[1]...)
}

// fig9TraceLen is the per-side trace length.
const fig9TraceLen = 400000

// fig9Side is one cached Fig9 cell ("fig9/rows"): which stream, its
// derived seed, and the trace length — everything the side function reads.
type fig9Side struct {
	Name string
	Seed int64
	N    int
}

func (s fig9Side) Key() []byte {
	return sweepcache.NewKey("fig9/rows").Any("side", s).Preimage()
}

func (s fig9Side) Run() []Fig9Row {
	if s.Name == "data" {
		return fig9DataSide(s.Seed, s.N)
	}
	return fig9InstrSide(s.Seed, s.N)
}
