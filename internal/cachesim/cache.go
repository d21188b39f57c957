// Package cachesim implements set-associative LRU cache and TLB simulators.
// It reproduces the cache-hierarchy side of the paper: the Table 2
// hierarchies for all three processors, the hit-rate characterization of
// Fig 9, and the instruction-cache replacement study in Fig 1.
package cachesim

import "fmt"

// Addr is a byte address in the simulated address space.
type Addr uint64

// Stats counts cache events.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate returns Hits/Accesses, or 0 when unused.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	// RoundTripCycles is the hit round-trip latency (Table 2).
	RoundTripCycles int
}

// Cache is a set-associative cache with least-recently-used replacement,
// tracked with per-way access stamps. It models tags only (no data), which
// is all the experiments consume.
type Cache struct {
	cfg   Config
	sets  int
	tags  [][]Addr
	valid [][]bool
	stamp [][]uint64 // the clock value of each way's last access
	clock uint64
	// Stats is exported for direct reading by experiments.
	Stats Stats
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		panic(fmt.Sprintf("cachesim: invalid config %+v", cfg))
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	if sets == 0 {
		panic(fmt.Sprintf("cachesim: %s has fewer lines (%d) than ways (%d)", cfg.Name, lines, cfg.Ways))
	}
	c := &Cache{cfg: cfg, sets: sets}
	c.tags = make([][]Addr, sets)
	c.valid = make([][]bool, sets)
	c.stamp = make([][]uint64, sets)
	for i := 0; i < sets; i++ {
		c.tags[i] = make([]Addr, cfg.Ways)
		c.valid[i] = make([]bool, cfg.Ways)
		c.stamp[i] = make([]uint64, cfg.Ways)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) index(a Addr) (set int, tag Addr) {
	line := a / Addr(c.cfg.LineBytes)
	return int(line % Addr(c.sets)), line / Addr(c.sets)
}

// Access performs a load/fetch of address a, returning whether it hit and
// installing the line on miss.
func (c *Cache) Access(a Addr) bool {
	c.Stats.Accesses++
	set, tag := c.index(a)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.Stats.Hits++
			c.touch(set, w)
			return true
		}
	}
	c.Stats.Misses++
	c.install(set, tag)
	return false
}

// Probe checks for presence without updating state or stats.
func (c *Cache) Probe(a Addr) bool {
	set, tag := c.index(a)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			return true
		}
	}
	return false
}

// Fill installs address a without counting an access (used by prefetchers).
func (c *Cache) Fill(a Addr) {
	set, tag := c.index(a)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			return // already present
		}
	}
	c.install(set, tag)
}

func (c *Cache) install(set int, tag Addr) {
	// Prefer an invalid way.
	for w := 0; w < c.cfg.Ways; w++ {
		if !c.valid[set][w] {
			c.valid[set][w] = true
			c.tags[set][w] = tag
			c.touch(set, w)
			return
		}
	}
	v := c.victim(set)
	c.Stats.Evictions++
	c.tags[set][v] = tag
	c.touch(set, v)
}

// touch notes an access to way of set.
func (c *Cache) touch(set, way int) {
	c.clock++
	c.stamp[set][way] = c.clock
}

// victim returns the least recently used way of set.
func (c *Cache) victim(set int) int {
	best, bestStamp := 0, c.stamp[set][0]
	for w := 1; w < len(c.stamp[set]); w++ {
		if c.stamp[set][w] < bestStamp {
			best, bestStamp = w, c.stamp[set][w]
		}
	}
	return best
}

// Flush invalidates the whole cache (state only; stats are preserved).
func (c *Cache) Flush() {
	for s := range c.valid {
		for w := range c.valid[s] {
			c.valid[s][w] = false
		}
	}
}

// TLBConfig describes one TLB level.
type TLBConfig struct {
	Name            string
	Entries         int
	Ways            int
	PageBytes       int
	RoundTripCycles int
}

// TLB is a set-associative translation buffer; structurally it is a cache
// whose "line" is a page.
type TLB struct {
	cache *Cache
	cfg   TLBConfig
}

// NewTLB builds a TLB.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.PageBytes <= 0 {
		cfg.PageBytes = 4096
	}
	c := New(Config{
		Name:            cfg.Name,
		SizeBytes:       cfg.Entries * cfg.PageBytes,
		Ways:            cfg.Ways,
		LineBytes:       cfg.PageBytes,
		RoundTripCycles: cfg.RoundTripCycles,
	})
	return &TLB{cache: c, cfg: cfg}
}

// Access translates address a, returning hit/miss.
func (t *TLB) Access(a Addr) bool { return t.cache.Access(a) }

// Stats returns TLB statistics.
func (t *TLB) Stats() Stats { return t.cache.Stats }

// Config returns the TLB's configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Hierarchy chains cache levels: an access that misses level i proceeds to
// level i+1; AccessCycles accumulates the Table 2 round-trip latencies plus
// a memory penalty on full miss.
type Hierarchy struct {
	Levels        []*Cache
	MemoryCycles  int // latency charged when all levels miss
	LevelAccesses []uint64
}

// NewHierarchy builds a hierarchy over the given levels.
func NewHierarchy(memoryCycles int, levels ...*Cache) *Hierarchy {
	return &Hierarchy{Levels: levels, MemoryCycles: memoryCycles, LevelAccesses: make([]uint64, len(levels))}
}

// Access walks the hierarchy for address a and returns the latency in cycles
// and the level that hit (len(Levels) means memory).
func (h *Hierarchy) Access(a Addr) (cycles int, hitLevel int) {
	for i, c := range h.Levels {
		h.LevelAccesses[i]++
		cycles += c.Config().RoundTripCycles
		if c.Access(a) {
			return cycles, i
		}
	}
	return cycles + h.MemoryCycles, len(h.Levels)
}

// AMAT returns the average access latency observed so far, derived from
// per-level hit statistics.
func (h *Hierarchy) AMAT() float64 {
	if len(h.Levels) == 0 || h.Levels[0].Stats.Accesses == 0 {
		return 0
	}
	total := float64(h.Levels[0].Stats.Accesses)
	var cycles float64
	for i, c := range h.Levels {
		cycles += float64(c.Stats.Accesses) * float64(c.Config().RoundTripCycles)
		if i == len(h.Levels)-1 {
			cycles += float64(c.Stats.Misses) * float64(h.MemoryCycles)
		}
	}
	return cycles / total
}
