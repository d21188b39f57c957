package machine

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"umanycore/internal/icn"
	"umanycore/internal/rq"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// benchRunConfig is a short but representative mixed run.
func benchRunConfig(seed int64) RunConfig {
	return RunConfig{
		App:      workload.SocialNetworkApps()[0],
		Mix:      workload.SocialNetworkMix(),
		RPS:      10000,
		Duration: 30 * sim.Millisecond,
		Warmup:   5 * sim.Millisecond,
		Drain:    120 * sim.Millisecond,
		Seed:     seed,
	}
}

// BenchmarkMachineRun measures one full machine simulation — the unit of
// work the sweep runner fans out — with allocation reporting so the engine
// reuse and event free-list wins are visible.
func BenchmarkMachineRun(b *testing.B) {
	cfg := UManycoreConfig()
	rc := benchRunConfig(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(cfg, rc)
		if res.Completed == 0 {
			b.Fatal("benchmark run completed no requests")
		}
	}
}

// BenchmarkMachineRunScaleOut exercises the software-scheduler path, whose
// per-event overhead profile differs from the hardware-RQ path.
func BenchmarkMachineRunScaleOut(b *testing.B) {
	cfg := ScaleOutConfig()
	rc := benchRunConfig(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(cfg, rc)
		if res.Completed == 0 {
			b.Fatal("benchmark run completed no requests")
		}
	}
}

// BenchmarkMachineNew measures constructing one machine per architecture —
// the set-up every sweep cell and every fleet server pays before its first
// event — with its bytes and allocations.
func BenchmarkMachineNew(b *testing.B) {
	app := workload.SocialNetworkApps()[0]
	for _, a := range []struct {
		name string
		cfg  Config
	}{
		{"uManycore", UManycoreConfig()},
		{"ServerClass", ServerClassConfig(40)},
		{"ScaleOut", ScaleOutConfig()},
	} {
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(sim.NewEngine(1), a.cfg, app)
			}
		})
	}
	// Each op above builds on the memory the previous op freed, so it times
	// a warm build. A fleet's or a sweep's set-up keeps every server alive
	// and so builds on fresh pages: cold builds 16 uManycore machines per
	// op, all live until the op ends, after returning the freed heap to the
	// OS with the timer stopped.
	b.Run("cold", func(b *testing.B) {
		cfg := UManycoreConfig()
		var fleet [16]*Machine
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fleet = [16]*Machine{}
			runtime.GC()
			debug.FreeOSMemory()
			b.StartTimer()
			for j := range fleet {
				fleet[j] = New(sim.NewEngine(1), cfg, app)
			}
		}
	})
}

// newBytes is the heap bytes one machine.New allocates per architecture
// (BenchmarkMachineNew's B/op). Most of a uManycore machine is its
// slab-built cores, ICN links and per-village queue headers; the hardware
// RQs' rings start at a few slots each and grow only under load. Update a
// constant only when a deliberate change to what a machine allocates moves
// it.
var newBytes = []struct {
	name  string
	cfg   Config
	bytes float64
}{
	{"uManycore", UManycoreConfig(), 63464},
	{"ServerClass-40", ServerClassConfig(40), 5256},
	{"ScaleOut", ScaleOutConfig(), 30768},
}

// TestMachineNewBytes pins construction bytes within 1%, in both
// directions, for each architecture: a per-village or per-core structure
// that starts allocating its worst case again shows here, and so does a
// saving that should be re-pinned.
func TestMachineNewBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow")
	}
	app := workload.SocialNetworkApps()[0]
	for _, a := range newBytes {
		New(sim.NewEngine(1), a.cfg, app) // warm the workload caches
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			New(sim.NewEngine(1), a.cfg, app)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / n
		if delta := got - a.bytes; delta > 0.01*a.bytes || -delta > 0.01*a.bytes {
			t.Errorf("%s machine.New allocates %.0f B, pinned %.0f B (tolerance 1%%)", a.name, got, a.bytes)
		}
	}
}

// topologyBytes is the heap bytes and allocations building each
// architecture's ICN costs: the topology header and its slab of zero-valued
// link state, 16 bytes a link, rounded up to the allocator's size class.
// Routes are arithmetic, so a routing table or a per-link field that comes
// back shows here. Update a constant only when a deliberate change to the
// topologies moves it.
var topologyBytes = []struct {
	name   string
	build  func() icn.Topology
	bytes  float64
	allocs float64
}{
	{"paper leaf-spine", func() icn.Topology { return icn.NewLeafSpine(icn.PaperLeafSpine(), chipletLink) }, 8272, 2},
	{"ScaleOut fat-tree", func() icn.Topology { return icn.NewFatTree(32, chipletLink) }, 2112, 2},
	{"ServerClass-40 mesh", func() icn.Topology { return icn.NewMesh(8, 5, chipletLink) }, 2384, 2},
}

// TestTopologyBytes pins each topology's construction bytes and
// allocations within 1%, in both directions.
func TestTopologyBytes(t *testing.T) {
	sc := ServerClassConfig(40)
	if UManycoreConfig().LeafSpineCfg != icn.PaperLeafSpine() || ScaleOutConfig().FatTreeLeaves != 32 || sc.MeshW != 8 || sc.MeshH != 5 {
		t.Fatal("an architecture's topology no longer matches the one pinned here")
	}
	for _, a := range topologyBytes {
		const n = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			a.build()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
		allocs := float64(after.Mallocs-before.Mallocs) / n
		if delta := bytes - a.bytes; delta > 0.01*a.bytes || -delta > 0.01*a.bytes {
			t.Errorf("%s allocates %.0f B, pinned %.0f B (tolerance 1%%)", a.name, bytes, a.bytes)
		}
		if delta := allocs - a.allocs; delta > 0.01*a.allocs || -delta > 0.01*a.allocs {
			t.Errorf("%s allocates %.2f times, pinned %.0f (tolerance 1%%)", a.name, allocs, a.allocs)
		}
	}
}

// TestResidentSizes pins the size of every per-core, per-village and
// per-link structure a machine keeps resident for its whole life — a
// coupled fleet keeps one machine per server — so a field added to one of
// them shows up here as a test diff. The sizes are for 64-bit platforms.
func TestResidentSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, s := range []struct {
		name      string
		got, want uintptr
	}{
		{"core", unsafe.Sizeof(core{}), 16},
		{"domain", unsafe.Sizeof(domain{}), 64},
		{"rq.RQ", unsafe.Sizeof(rq.RQ{}), 56},
		{"rq.NICBuffer", unsafe.Sizeof(rq.NICBuffer{}), 32},
		{"icn.Link", unsafe.Sizeof(icn.Link{}), 16},
	} {
		if s.got != s.want {
			t.Errorf("%s is %d bytes, pinned %d", s.name, s.got, s.want)
		}
	}
}
