package uarch

import "umanycore/internal/cachesim"

// InstrPrefetcher prefetches into the instruction cache.
type InstrPrefetcher interface {
	Observe(fetchAddr cachesim.Addr, hit bool, target *cachesim.Cache)
	Name() string
}

// NoneIPrefetcher is the baseline (no instruction prefetching).
type NoneIPrefetcher struct{}

// Observe implements InstrPrefetcher.
func (NoneIPrefetcher) Observe(cachesim.Addr, bool, *cachesim.Cache) {}

// Name implements InstrPrefetcher.
func (NoneIPrefetcher) Name() string { return "none" }

// ISpyLike is a context-driven instruction prefetcher in the spirit of I-SPY
// (Khan et al., MICRO'20): it records, for each i-cache miss, the fetch
// context (the preceding miss line) that led to it, and on re-observing a
// context it prefetches the lines that historically followed. With
// coalescing, a context maps to a small set of successor lines.
type ISpyLike struct {
	successors map[cachesim.Addr][]cachesim.Addr // context line -> learned successor lines
	lastMiss   cachesim.Addr
	haveMiss   bool
	maxSucc    int
}

// NewISpyLike builds the prefetcher.
func NewISpyLike() *ISpyLike {
	return &ISpyLike{successors: make(map[cachesim.Addr][]cachesim.Addr), maxSucc: 8}
}

// Observe implements InstrPrefetcher.
func (s *ISpyLike) Observe(fetchAddr cachesim.Addr, hit bool, target *cachesim.Cache) {
	const lineBytes = 64
	line := fetchAddr / lineBytes

	// On every fetch of a line we have learned successors for, prefetch them
	// (conditional prefetch injection on context recurrence).
	if succ, ok := s.successors[line]; ok {
		for _, sl := range succ {
			target.Fill(sl * lineBytes)
		}
	}

	if !hit {
		if s.haveMiss && s.lastMiss != line {
			lst := s.successors[s.lastMiss]
			found := false
			for _, x := range lst {
				if x == line {
					found = true
					break
				}
			}
			if !found && len(lst) < s.maxSucc {
				s.successors[s.lastMiss] = append(lst, line)
			}
		}
		s.lastMiss = line
		s.haveMiss = true
	}
}

// Name implements InstrPrefetcher.
func (s *ISpyLike) Name() string { return "i-spy-like" }
