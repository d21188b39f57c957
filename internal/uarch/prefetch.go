package uarch

import (
	"umanycore/internal/cachesim"
)

// DataPrefetcher observes demand accesses and issues prefetch fills into a
// cache.
type DataPrefetcher interface {
	// Observe is called on each demand access with the accessing PC and
	// address, plus whether the demand access hit. It may call target.Fill.
	Observe(pc uint64, addr cachesim.Addr, hit bool, target *cachesim.Cache)
	Name() string
}

// NonePrefetcher is the baseline: no prefetching.
type NonePrefetcher struct{}

// Observe implements DataPrefetcher.
func (NonePrefetcher) Observe(uint64, cachesim.Addr, bool, *cachesim.Cache) {}

// Name implements DataPrefetcher.
func (NonePrefetcher) Name() string { return "none" }

// PythiaLike is a reinforcement-learning offset prefetcher in the spirit of
// Pythia (Bera et al., MICRO'21): for each PC signature it maintains
// Q-values over a set of candidate line offsets, selects the best-valued
// offset to prefetch, and rewards offsets whose prefetches turn out useful
// (the demanded line was previously prefetched by that offset).
type PythiaLike struct {
	offsets  []int
	q        map[uint64][]float64 // pc signature -> Q per offset
	inflight map[cachesim.Addr]issued
	lastAddr map[uint64]cachesim.Addr
	alpha    float64
	degree   int
}

type issued struct {
	sig    uint64
	offIdx int
}

// NewPythiaLike builds the prefetcher with the default candidate offsets.
func NewPythiaLike() *PythiaLike {
	return &PythiaLike{
		offsets:  []int{1, 2, 3, 4, 8, 16, -1},
		q:        make(map[uint64][]float64),
		inflight: make(map[cachesim.Addr]issued),
		lastAddr: make(map[uint64]cachesim.Addr),
		alpha:    0.3,
		degree:   2,
	}
}

func (p *PythiaLike) qv(sig uint64) []float64 {
	if v, ok := p.q[sig]; ok {
		return v
	}
	v := make([]float64, len(p.offsets))
	p.q[sig] = v
	return v
}

// Observe implements DataPrefetcher.
func (p *PythiaLike) Observe(pc uint64, addr cachesim.Addr, hit bool, target *cachesim.Cache) {
	const lineBytes = 64
	line := addr / lineBytes
	sig := pc

	// Reward: if this demanded line is one we prefetched, credit the
	// (signature, offset) pair that issued it.
	if iss, ok := p.inflight[line]; ok {
		q := p.qv(iss.sig)
		q[iss.offIdx] += p.alpha * (1.0 - q[iss.offIdx])
		delete(p.inflight, line)
	}

	// Penalize stale prefetches lazily via decay when we issue new ones
	// (keeps the model O(1) per access).

	// Choose the best offsets for this signature; fall back to the observed
	// delta from this PC's previous access (stride learning bootstrap).
	q := p.qv(sig)
	if last, ok := p.lastAddr[sig]; ok {
		delta := int(int64(line) - int64(last/lineBytes))
		for i, off := range p.offsets {
			if off == delta {
				q[i] += p.alpha * 0.5 * (1.0 - q[i])
			}
		}
	}
	p.lastAddr[sig] = addr

	issuedCount := 0
	for issuedCount < p.degree {
		best, bestQ := -1, 0.05 // issue only above a confidence floor
		for i := range q {
			if q[i] > bestQ {
				inUse := false
				pl := cachesim.Addr(int64(line) + int64(p.offsets[i]))
				if _, ok := p.inflight[pl]; ok {
					inUse = true
				}
				if !inUse {
					best, bestQ = i, q[i]
				}
			}
		}
		if best < 0 {
			break
		}
		pl := cachesim.Addr(int64(line) + int64(p.offsets[best]))
		target.Fill(pl * lineBytes)
		p.inflight[pl] = issued{sig: sig, offIdx: best}
		q[best] *= 0.995 // slight decay so useless offsets fade
		issuedCount++
	}
}

// Name implements DataPrefetcher.
func (p *PythiaLike) Name() string { return "pythia-like" }

// MemAccess is one dynamic memory access in a trace.
type MemAccess struct {
	PC   uint64
	Addr cachesim.Addr
}
