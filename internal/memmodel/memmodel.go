// Package memmodel derives the machine model's core performance factors
// from first principles: it replays workload-class memory/instruction/branch
// traces through each processor's Table 2 cache hierarchy, folds the
// resulting AMATs and mispredict rates into a CPI model, and reports each
// core's effective instruction throughput.
//
// Its headline output justifies the ServerClass PerfFactor: on
// *microservice* code the 6-issue 3GHz ServerClass core is only about 1.9×
// faster than the 4-issue 2GHz A15-like core (frequency carries most of
// it), while on *monolithic* code the gap is wider — the quantitative form
// of the paper's Fig 1 argument that big-core microarchitecture is wasted
// on microservices.
//
// It is a calibration source, not part of the simulated machine: PerfFactor
// calibrates the machine model's serverClassPerf constant (1.65), and
// internal/machine's TestCalibration fails when the constant leaves its
// band around this package's measurement.
package memmodel

import (
	"math"
	"math/rand"

	"umanycore/internal/cachesim"
	"umanycore/internal/uarch"
)

// CoreModel describes a core and its hierarchy for throughput estimation.
type CoreModel struct {
	Name       string
	IssueWidth int
	FreqGHz    float64
	// ROB sizes the reorder window; deeper windows overlap more memory
	// latency (memory-level parallelism).
	ROB int
	// L2KB / L3KB size the non-L1 levels (0 = absent). L1 is 64KB/8w for
	// both designs (Table 2).
	L2KB, L3KB int
	// L2RT / L3RT are round-trip latencies in cycles.
	L2RT, L3RT int
	// MemCycles is the full-miss penalty.
	MemCycles int
}

// ServerClassCore returns the Table 2 big-core hierarchy.
func ServerClassCore() CoreModel {
	return CoreModel{
		Name: "ServerClass", IssueWidth: 6, FreqGHz: 3, ROB: 352,
		L2KB: 2048, L2RT: 16, L3KB: 2048, L3RT: 40, MemCycles: 180,
	}
}

// SmallCore returns the A15-like μManycore/ScaleOut core hierarchy (64KB L1,
// 256KB shared L2, no L3).
func SmallCore() CoreModel {
	return CoreModel{
		Name: "Small", IssueWidth: 4, FreqGHz: 2, ROB: 64,
		L2KB: 256, L2RT: 24, MemCycles: 120,
	}
}

// baseCPI models issue-width-limited execution on cache-resident code: wider
// issue helps sublinearly (dependences bound ILP).
func (c CoreModel) baseCPI() float64 {
	return 2.2 / math.Pow(float64(c.IssueWidth), 0.55)
}

// memOverlap models memory-level parallelism: the fraction of memory
// latency hidden by the out-of-order window, growing logarithmically with
// ROB size (64 entries → ~0.40, 352 entries → ~0.77).
func (c CoreModel) memOverlap() float64 {
	rob := float64(c.ROB)
	if rob < 32 {
		rob = 32
	}
	ov := 0.25 + 0.15*math.Log2(rob/32)
	if ov > 0.85 {
		ov = 0.85
	}
	return ov
}

// hierarchy builds the core's cache chain.
func (c CoreModel) hierarchy(name string) *cachesim.Hierarchy {
	levels := []*cachesim.Cache{
		cachesim.New(cachesim.Config{Name: name + "-L1", SizeBytes: 64 << 10, Ways: 8, LineBytes: 64, RoundTripCycles: 2}),
	}
	if c.L2KB > 0 {
		levels = append(levels, cachesim.New(cachesim.Config{Name: name + "-L2", SizeBytes: c.L2KB << 10, Ways: 16, LineBytes: 64, RoundTripCycles: c.L2RT}))
	}
	if c.L3KB > 0 {
		levels = append(levels, cachesim.New(cachesim.Config{Name: name + "-L3", SizeBytes: c.L3KB << 10, Ways: 16, LineBytes: 64, RoundTripCycles: c.L3RT}))
	}
	return cachesim.NewHierarchy(c.MemCycles, levels...)
}

// Throughput is the evaluation result for one core on one workload class.
type Throughput struct {
	Core  string
	Class uarch.TraceClass
	// CPI is the modeled cycles per instruction.
	CPI float64
	// GIPS is effective instructions/second (×1e9) — FreqGHz / CPI.
	GIPS float64
	// AMATData / AMATInstr are the measured hierarchy latencies (cycles).
	AMATData, AMATInstr float64
	// Mispredict is the branch mispredict rate with the core's predictor.
	Mispredict float64
}

// Evaluate replays n-event traces of the given class through the core's
// hierarchy and predictor and returns its effective throughput.
func Evaluate(c CoreModel, class uarch.TraceClass, n int, seed int64) Throughput {
	r := rand.New(rand.NewSource(seed))

	h := c.hierarchy("d")
	if class == uarch.Microservice {
		for _, a := range uarch.GenHandlerPhases(n, r) {
			h.Access(a.Addr)
		}
	} else {
		for _, a := range uarch.GenDataTrace(class, n, r) {
			h.Access(a.Addr)
		}
	}
	amatD := h.AMAT()

	hi := c.hierarchy("i")
	for _, a := range uarch.GenInstrTrace(class, n, r) {
		hi.Access(a)
	}
	amatI := hi.AMAT()

	// Big cores carry a stronger predictor (perceptron vs gshare).
	var mispredict float64
	bt := uarch.GenBranchTrace(class, n, r)
	if c.IssueWidth >= 6 {
		mispredict = uarch.MeasureMispredictRate(uarch.NewPerceptron(2048, 32), bt)
	} else {
		mispredict = uarch.MeasureMispredictRate(uarch.NewGShare(12, 8), bt)
	}

	model := uarch.DefaultCPIModel()
	model.BaseCPI = c.baseCPI()
	model.DataOverlap = c.memOverlap()
	model.IFetchOverlap = c.memOverlap() * 0.8
	cpi := model.CPI(mispredict, amatD, amatI)
	return Throughput{
		Core: c.Name, Class: class,
		CPI: cpi, GIPS: c.FreqGHz / cpi,
		AMATData: amatD, AMATInstr: amatI,
		Mispredict: mispredict,
	}
}

// PerfFactor returns the big core's speedup over the small core for the
// given workload class — the quantity machine.Config.PerfFactor encodes
// (about 1.94 for microservices at seed 42, against the ServerClass
// preset's 1.65).
func PerfFactor(class uarch.TraceClass, n int, seed int64) float64 {
	big := Evaluate(ServerClassCore(), class, n, seed)
	small := Evaluate(SmallCore(), class, n, seed)
	if small.GIPS == 0 {
		return 0
	}
	return big.GIPS / small.GIPS
}
