// Package uarch models the four published microarchitectural optimizations
// that paper §2.2 (Fig 1) evaluates on monolithic vs microservice workloads:
//
//   - a Pythia-style reinforcement-learning data prefetcher vs no prefetcher,
//   - a perceptron branch predictor vs a simple gshare,
//   - an I-SPY-style context-driven instruction prefetcher vs none,
//   - a Ripple-style profile-guided I-cache policy (lines a profiling pass
//     finds single-use bypass the L1) vs LRU.
//
// The models are deliberately lightweight: Fig 1's point is the differential
// benefit between workload classes, which follows from footprint and
// predictability differences that these models capture directly.
package uarch

import "math"

// BranchPredictor predicts taken/not-taken and learns from outcomes.
type BranchPredictor interface {
	Predict(pc uint64, history uint64) bool
	Update(pc uint64, history uint64, taken bool)
	Name() string
}

// GShare is the baseline predictor: a table of 2-bit saturating counters
// indexed by PC XOR global history.
type GShare struct {
	table    []int8
	histBits uint
}

// NewGShare builds a gshare predictor with 2^indexBits counters using
// histBits bits of global history.
func NewGShare(indexBits, histBits uint) *GShare {
	return &GShare{table: make([]int8, 1<<indexBits), histBits: histBits}
}

func (g *GShare) index(pc, history uint64) int {
	mask := uint64(len(g.table) - 1)
	h := history & ((1 << g.histBits) - 1)
	return int((pc ^ h) & mask)
}

// Predict implements BranchPredictor.
func (g *GShare) Predict(pc, history uint64) bool {
	return g.table[g.index(pc, history)] >= 0
}

// Update implements BranchPredictor.
func (g *GShare) Update(pc, history uint64, taken bool) {
	i := g.index(pc, history)
	if taken {
		if g.table[i] < 1 {
			g.table[i]++
		}
	} else {
		if g.table[i] > -2 {
			g.table[i]--
		}
	}
}

// Name implements BranchPredictor.
func (g *GShare) Name() string { return "gshare" }

// Perceptron is the Jiménez & Lin perceptron predictor: per-branch weight
// vectors over global-history bits, trained online. It captures long linear
// correlations that gshare's indexed counters cannot.
type Perceptron struct {
	weights [][]int32
	histLen int
	theta   int32
	tableSz uint64
}

// NewPerceptron builds a perceptron predictor with `entries` weight vectors
// over histLen history bits.
func NewPerceptron(entries int, histLen int) *Perceptron {
	p := &Perceptron{
		weights: make([][]int32, entries),
		histLen: histLen,
		// Optimal threshold from the original paper: 1.93*h + 14.
		theta:   int32(math.Floor(1.93*float64(histLen) + 14)),
		tableSz: uint64(entries),
	}
	for i := range p.weights {
		p.weights[i] = make([]int32, histLen+1) // +1 bias weight
	}
	return p
}

func (p *Perceptron) output(pc, history uint64) int32 {
	w := p.weights[pc%p.tableSz]
	y := w[0] // bias
	for i := 0; i < p.histLen; i++ {
		if history&(1<<uint(i)) != 0 {
			y += w[i+1]
		} else {
			y -= w[i+1]
		}
	}
	return y
}

// Predict implements BranchPredictor.
func (p *Perceptron) Predict(pc, history uint64) bool {
	return p.output(pc, history) >= 0
}

// Update implements BranchPredictor.
func (p *Perceptron) Update(pc, history uint64, taken bool) {
	y := p.output(pc, history)
	pred := y >= 0
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if pred == taken && mag > p.theta {
		return
	}
	w := p.weights[pc%p.tableSz]
	t := int32(-1)
	if taken {
		t = 1
	}
	w[0] += t
	for i := 0; i < p.histLen; i++ {
		x := int32(-1)
		if history&(1<<uint(i)) != 0 {
			x = 1
		}
		w[i+1] += t * x
	}
}

// Name implements BranchPredictor.
func (p *Perceptron) Name() string { return "perceptron" }

// BranchEvent is one dynamic branch in a trace.
type BranchEvent struct {
	PC    uint64
	Taken bool
}

// MeasureMispredictRate runs predictor pr over the trace, maintaining global
// history, and returns the misprediction rate.
func MeasureMispredictRate(pr BranchPredictor, trace []BranchEvent) float64 {
	if len(trace) == 0 {
		return 0
	}
	var history uint64
	miss := 0
	for _, b := range trace {
		if pr.Predict(b.PC, history) != b.Taken {
			miss++
		}
		pr.Update(b.PC, history, b.Taken)
		history <<= 1
		if b.Taken {
			history |= 1
		}
	}
	return float64(miss) / float64(len(trace))
}
