package uarch

import (
	"math/rand"
	"testing"

	"umanycore/internal/cachesim"
)

func l1dTest() *cachesim.Cache {
	return cachesim.New(cachesim.Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, RoundTripCycles: 2})
}

func l1iTest() *cachesim.Cache {
	return cachesim.New(cachesim.Config{Name: "L1I", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, RoundTripCycles: 2})
}

// measureMissRate replays trace through a fresh cache built by mkCache with
// the given prefetcher and returns the demand miss rate.
func measureMissRate(pf DataPrefetcher, mkCache func() *cachesim.Cache, trace []MemAccess) float64 {
	c := mkCache()
	for _, a := range trace {
		hit := c.Access(a.Addr)
		pf.Observe(a.PC, a.Addr, hit, c)
	}
	return 1 - c.Stats.HitRate()
}

// measureIMissRate is measureMissRate for an instruction fetch trace.
func measureIMissRate(pf InstrPrefetcher, mkCache func() *cachesim.Cache, trace []cachesim.Addr) float64 {
	c := mkCache()
	for _, a := range trace {
		hit := c.Access(a)
		pf.Observe(a, hit, c)
	}
	return 1 - c.Stats.HitRate()
}

func TestGShareLearnsBias(t *testing.T) {
	g := NewGShare(10, 8)
	trace := make([]BranchEvent, 10000)
	for i := range trace {
		trace[i] = BranchEvent{PC: 0x40, Taken: true}
	}
	if mr := MeasureMispredictRate(g, trace); mr > 0.01 {
		t.Fatalf("gshare mispredict on constant branch = %v", mr)
	}
}

func TestGShareLearnsLoop(t *testing.T) {
	g := NewGShare(12, 8)
	var trace []BranchEvent
	for i := 0; i < 2000; i++ {
		for j := 0; j < 7; j++ {
			trace = append(trace, BranchEvent{PC: 0x40, Taken: true})
		}
		trace = append(trace, BranchEvent{PC: 0x40, Taken: false})
	}
	// With 8-bit history a 7T/1N loop is fully predictable after warmup.
	if mr := MeasureMispredictRate(g, trace); mr > 0.05 {
		t.Fatalf("gshare loop mispredict = %v", mr)
	}
}

// Correlation at distance 12 with noisy branches in between: beyond gshare's
// 8-bit history, learnable by a 32-bit perceptron.
func TestPerceptronBeatsGShareOnLongCorrelation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var trace []BranchEvent
	for i := 0; i < 4000; i++ {
		first := r.Float64() < 0.5
		trace = append(trace, BranchEvent{PC: 0x1000, Taken: first})
		for j := 0; j < 11; j++ {
			trace = append(trace, BranchEvent{PC: uint64(0x1100 + j*4), Taken: r.Float64() < 0.7})
		}
		trace = append(trace, BranchEvent{PC: 0x2000, Taken: first})
	}
	g := MeasureMispredictRate(NewGShare(12, 8), trace)
	p := MeasureMispredictRate(NewPerceptron(2048, 32), trace)
	if g < p+0.015 {
		t.Fatalf("gshare (%v) should be clearly worse than perceptron (%v)", g, p)
	}
}

func TestMeasureMispredictEmpty(t *testing.T) {
	if MeasureMispredictRate(NewGShare(10, 8), nil) != 0 {
		t.Fatal("empty trace should be 0")
	}
}

func TestPythiaLearnsStride(t *testing.T) {
	var trace []MemAccess
	for i := 0; i < 40000; i++ {
		trace = append(trace, MemAccess{PC: 0x10, Addr: cachesim.Addr(i * 64)})
	}
	base := measureMissRate(NonePrefetcher{}, l1dTest, trace)
	opt := measureMissRate(NewPythiaLike(), l1dTest, trace)
	if opt > base/2 {
		t.Fatalf("pythia-like ineffective: base %v opt %v", base, opt)
	}
}

func TestISpyLearnsCallSequence(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	trace := GenInstrTrace(Monolithic, 300000, r)
	base := measureIMissRate(NoneIPrefetcher{}, l1iTest, trace)
	opt := measureIMissRate(NewISpyLike(), l1iTest, trace)
	if base < 0.15 {
		t.Fatalf("monolithic i-trace should thrash 64KB L1I: %v", base)
	}
	if opt > base*0.6 {
		t.Fatalf("i-spy-like ineffective: base %v opt %v", base, opt)
	}
}

func TestTraceClassString(t *testing.T) {
	if Monolithic.String() != "monolithic" || Microservice.String() != "microservice" {
		t.Fatal("class names")
	}
}

func TestGenTracesLengths(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, class := range []TraceClass{Monolithic, Microservice} {
		if got := len(GenBranchTrace(class, 5000, r)); got != 5000 {
			t.Fatalf("branch trace len = %d", got)
		}
		if got := len(GenDataTrace(class, 5000, r)); got != 5000 {
			t.Fatalf("data trace len = %d", got)
		}
		if got := len(GenInstrTrace(class, 5000, r)); got != 5000 {
			t.Fatalf("instr trace len = %d", got)
		}
	}
	if got := len(GenInstrTraceWithTransients(5000, r)); got != 5000 {
		t.Fatalf("transient trace len = %d", got)
	}
}

func TestMicroTracesAreCacheResident(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	_, dMiss := MeasureDataAMAT(NonePrefetcher{}, GenDataTrace(Microservice, 100000, r))
	if dMiss > 0.15 {
		t.Fatalf("micro data L1 miss = %v, want small", dMiss)
	}
	_, iMiss := MeasureInstrAMAT(NoneIPrefetcher{}, GenInstrTrace(Microservice, 100000, r))
	if iMiss > 0.05 {
		t.Fatalf("micro instr L1 miss = %v, want ~0", iMiss)
	}
}

func TestCPIModel(t *testing.T) {
	m := DefaultCPIModel()
	base := m.CPI(0.05, 10, 5)
	if base <= m.BaseCPI {
		t.Fatal("CPI should exceed base with nonzero rates")
	}
	// Lower mispredict rate → lower CPI.
	if m.CPI(0.01, 10, 5) >= base {
		t.Fatal("better branch prediction should lower CPI")
	}
	// AMAT below L1RT clamps to zero extra cost.
	if m.CPI(0, 1, 1) != m.BaseCPI {
		t.Fatalf("clamped CPI = %v", m.CPI(0, 1, 1))
	}
}

// The headline reproduction check for Fig 1: every optimization helps
// monolithic workloads substantially more than microservice workloads
// (paper: mono +2–19%, micro +0–2%).
func TestFig1Differential(t *testing.T) {
	results := RunFig1(150000, 42)
	if len(results) != 8 {
		t.Fatalf("want 8 bars, got %d", len(results))
	}
	mono := map[string]float64{}
	micro := map[string]float64{}
	for _, res := range results {
		if res.Speedup < 0.999 {
			t.Errorf("%s/%s speedup %v < 1", res.Optimization, res.Class, res.Speedup)
		}
		if res.Class == Monolithic {
			mono[res.Optimization] = res.Speedup
		} else {
			micro[res.Optimization] = res.Speedup
		}
	}
	for _, opt := range []string{"D-Prefetcher", "Branch Predictor", "I-Prefetcher"} {
		if mono[opt] < 1.05 {
			t.Errorf("%s mono speedup %v, want >= 1.05", opt, mono[opt])
		}
		if micro[opt] > 1.05 {
			t.Errorf("%s micro speedup %v, want <= 1.05", opt, micro[opt])
		}
		if mono[opt] < micro[opt]+0.04 {
			t.Errorf("%s differential too small: mono %v micro %v", opt, mono[opt], micro[opt])
		}
	}
	// Replacement is a small effect even for monoliths (paper: 2%).
	if mono["I-Cache Replace"] < 1.002 || mono["I-Cache Replace"] > 1.15 {
		t.Errorf("I-Cache Replace mono speedup %v out of band", mono["I-Cache Replace"])
	}
	if micro["I-Cache Replace"] > 1.02 {
		t.Errorf("I-Cache Replace micro speedup %v, want ~1.0", micro["I-Cache Replace"])
	}
}

func TestFig1Deterministic(t *testing.T) {
	a := RunFig1(20000, 7)
	b := RunFig1(20000, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic result at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
