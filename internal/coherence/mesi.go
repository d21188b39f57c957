// Package coherence implements a directory-based MESI cache-coherence
// protocol simulator. The paper's central architectural argument (§3.1,
// §4.1) is that package-wide hardware coherence buys microservices almost
// nothing while charging them remote directory lookups, invalidations and
// extra network traffic — so μManycore keeps coherence domains village-
// sized. This package makes that argument quantitative: it runs the same
// sharing patterns over a village-scale domain (8 cores, co-located
// directory) and a package-scale domain (1024 cores, address-interleaved
// home directories) and reports the protocol traffic and latency each
// incurs.
//
// It is a calibration source, not part of the simulated machine: its
// migratory-sharing resume cost calibrates the machine model's
// villageResumePenaltyCycles (100) and coherencePenaltyCycles (600), and
// internal/machine's TestCalibration fails when either constant leaves its
// band around this package's measurement.
package coherence

import "fmt"

// State is a MESI cache-line state.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config sizes a coherence domain.
type Config struct {
	// Caches is the number of private caches (cores) in the domain.
	Caches int
	// DirBanks is the number of address-interleaved directory banks; a
	// village co-locates one bank with its L2, a package distributes many.
	DirBanks int
	// LocalDirHops / RemoteDirHops are the network distances to a directory
	// bank that is local (same village/cluster) vs remote.
	LocalDirHops  int
	RemoteDirHops int
	// CacheToCacheHops is the distance of an ownership transfer.
	CacheToCacheHops int
	// HopCycles converts hops to cycles (Table 2: 5 cycles/hop).
	HopCycles int
	// DirLookupCycles is a directory bank access.
	DirLookupCycles int
}

// VillageConfig returns an 8-core village: one directory bank next to the
// shared L2, every access local.
func VillageConfig() Config {
	return Config{
		Caches: 8, DirBanks: 1,
		LocalDirHops: 1, RemoteDirHops: 1, CacheToCacheHops: 1,
		HopCycles: 5, DirLookupCycles: 10,
	}
}

// GlobalConfig returns a 1024-core package: 32 address-interleaved banks,
// most lookups remote (the ScaleOut/ServerClass organization).
func GlobalConfig() Config {
	return Config{
		Caches: 1024, DirBanks: 32,
		LocalDirHops: 1, RemoteDirHops: 8, CacheToCacheHops: 8,
		HopCycles: 5, DirLookupCycles: 10,
	}
}

// Stats accumulates protocol events.
type Stats struct {
	Reads           uint64
	Writes          uint64
	DirLookups      uint64
	Invalidations   uint64
	OwnershipXfers  uint64 // cache-to-cache transfers (M/E forwarding)
	Downgrades      uint64 // M/E -> S on remote read
	NetworkMessages uint64
	TotalLatencyCyc uint64
}

// MeanLatency returns average cycles per access.
func (s Stats) MeanLatency() float64 {
	n := s.Reads + s.Writes
	if n == 0 {
		return 0
	}
	return float64(s.TotalLatencyCyc) / float64(n)
}

// line tracks one cache line's global coherence state.
type line struct {
	state   State // aggregate: Invalid, Shared, or Exclusive/Modified (owned)
	owner   int   // owning cache for E/M
	sharers map[int]bool
}

// Directory is the protocol engine.
type Directory struct {
	cfg   Config
	lines map[uint64]*line
	// Stats is exported for reading between phases.
	Stats Stats
}

// New builds an empty directory domain.
func New(cfg Config) *Directory {
	if cfg.Caches <= 0 || cfg.DirBanks <= 0 {
		panic("coherence: invalid config")
	}
	return &Directory{cfg: cfg, lines: make(map[uint64]*line)}
}

// Config returns the domain configuration.
func (d *Directory) Config() Config { return d.cfg }

func (d *Directory) lineOf(addr uint64) *line {
	l, ok := d.lines[addr]
	if !ok {
		l = &line{state: Invalid, owner: -1, sharers: make(map[int]bool)}
		d.lines[addr] = l
	}
	return l
}

// dirHops returns the request's distance to addr's home bank. With one
// bank the directory is local; with many, a lookup is local only when the
// requester's bank stripe matches the address's home bank.
func (d *Directory) dirHops(core int, addr uint64) int {
	if d.cfg.DirBanks == 1 {
		return d.cfg.LocalDirHops
	}
	home := int(addr) % d.cfg.DirBanks
	mine := core * d.cfg.DirBanks / d.cfg.Caches
	if home == mine {
		return d.cfg.LocalDirHops
	}
	return d.cfg.RemoteDirHops
}

func (d *Directory) charge(hops, extraMsgs int) int {
	cyc := d.cfg.DirLookupCycles + hops*d.cfg.HopCycles
	d.Stats.DirLookups++
	d.Stats.NetworkMessages += uint64(1 + extraMsgs)
	d.Stats.TotalLatencyCyc += uint64(cyc)
	return cyc
}

// State returns the aggregate line state and owner (-1 when unowned).
func (d *Directory) State(addr uint64) (State, int) {
	l, ok := d.lines[addr]
	if !ok {
		return Invalid, -1
	}
	return l.state, l.owner
}

// Sharers returns the number of caches holding the line.
func (d *Directory) Sharers(addr uint64) int {
	l, ok := d.lines[addr]
	if !ok {
		return 0
	}
	if l.state == Invalid {
		return 0
	}
	if l.owner >= 0 {
		return 1
	}
	return len(l.sharers)
}

func (d *Directory) validCore(core int) {
	if core < 0 || core >= d.cfg.Caches {
		panic(fmt.Sprintf("coherence: core %d out of range", core))
	}
}

// Read performs a load from the given core and returns its latency in
// cycles (0 for a pure local hit).
func (d *Directory) Read(core int, addr uint64) int {
	d.validCore(core)
	d.Stats.Reads++
	l := d.lineOf(addr)
	switch l.state {
	case Invalid:
		// Miss to memory through the directory.
		cyc := d.charge(d.dirHops(core, addr)*2, 1)
		l.state = Exclusive
		l.owner = core
		return cyc
	case Shared:
		if l.sharers[core] {
			return 0 // local hit
		}
		cyc := d.charge(d.dirHops(core, addr)*2, 1)
		l.sharers[core] = true
		return cyc
	default: // Exclusive / Modified
		if l.owner == core {
			return 0 // owner hit
		}
		// Downgrade the owner, forward the data cache-to-cache.
		cyc := d.charge(d.dirHops(core, addr)+d.cfg.CacheToCacheHops*2, 2)
		d.Stats.Downgrades++
		l.sharers = map[int]bool{l.owner: true, core: true}
		l.owner = -1
		l.state = Shared
		return cyc
	}
}

// Write performs a store from the given core and returns its latency in
// cycles.
func (d *Directory) Write(core int, addr uint64) int {
	d.validCore(core)
	d.Stats.Writes++
	l := d.lineOf(addr)
	switch l.state {
	case Invalid:
		cyc := d.charge(d.dirHops(core, addr)*2, 1)
		l.state = Modified
		l.owner = core
		return cyc
	case Shared:
		// Invalidate every sharer (possibly including upgrade by a sharer).
		inv := 0
		for s := range l.sharers {
			if s != core {
				inv++
			}
		}
		d.Stats.Invalidations += uint64(inv)
		cyc := d.charge(d.dirHops(core, addr)*2+d.cfg.CacheToCacheHops, inv*2)
		cyc += inv * d.cfg.HopCycles // invalidation fan-out adds latency
		d.Stats.TotalLatencyCyc += uint64(inv * d.cfg.HopCycles)
		l.state = Modified
		l.owner = core
		l.sharers = make(map[int]bool)
		return cyc
	default: // Exclusive / Modified
		if l.owner == core {
			if l.state == Exclusive {
				l.state = Modified // silent upgrade
			}
			return 0
		}
		// Ownership transfer: invalidate the old owner, forward the line.
		cyc := d.charge(d.dirHops(core, addr)+d.cfg.CacheToCacheHops*2, 2)
		d.Stats.OwnershipXfers++
		l.owner = core
		l.state = Modified
		return cyc
	}
}

// Evict drops the line from one cache (capacity eviction / context
// migration writeback).
func (d *Directory) Evict(core int, addr uint64) {
	d.validCore(core)
	l, ok := d.lines[addr]
	if !ok {
		return
	}
	switch l.state {
	case Shared:
		delete(l.sharers, core)
		if len(l.sharers) == 0 {
			l.state = Invalid
		}
	case Exclusive, Modified:
		if l.owner == core {
			l.state = Invalid
			l.owner = -1
		}
	}
}

// CheckInvariants validates protocol invariants over all tracked lines:
// an owned line has exactly one owner and no sharer set; a shared line has
// at least one sharer and no owner.
func (d *Directory) CheckInvariants() error {
	for addr, l := range d.lines {
		switch l.state {
		case Invalid:
			if l.owner != -1 && l.owner != 0 || len(l.sharers) > 0 && l.state == Invalid {
				if len(l.sharers) > 0 {
					return fmt.Errorf("coherence: invalid line %x has sharers", addr)
				}
			}
		case Shared:
			if len(l.sharers) == 0 {
				return fmt.Errorf("coherence: shared line %x has no sharers", addr)
			}
			if l.owner != -1 {
				return fmt.Errorf("coherence: shared line %x has owner %d", addr, l.owner)
			}
		case Exclusive, Modified:
			if l.owner < 0 || l.owner >= d.cfg.Caches {
				return fmt.Errorf("coherence: owned line %x has bad owner %d", addr, l.owner)
			}
		}
	}
	return nil
}
