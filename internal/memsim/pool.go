// Package memsim models the per-cluster memory-pool SRAM chiplet that
// stores read-mostly service snapshots (§3.5, §4.1).
//
// The machine model does not use it: it backs §3.5's boot-time claim (a
// snapshot boots an instance in under 10ms, against a >300ms cold boot)
// through examples/snapshots and TestBootInstance.
package memsim

import (
	"fmt"

	"umanycore/internal/sim"
)

// Snapshot is a service's initialized state image kept in a memory pool so
// new instances skip boot-time initialization (§3.5: snapshots cut instance
// boot from >300ms to <10ms and take ≤16MB per service).
type Snapshot struct {
	ServiceID int
	SizeBytes int
}

// PoolConfig sizes a per-cluster memory-pool SRAM chiplet.
type PoolConfig struct {
	CapacityBytes int
	// ReadLatency is the fixed SRAM access latency.
	ReadLatency sim.Time
	// PsPerByte is the bulk-transfer serialization (the L-MEM engine).
	PsPerByte sim.Time
}

// DefaultPoolConfig returns a 256MB SRAM pool with 50ns access latency and
// ~100GB/s bulk-transfer bandwidth.
func DefaultPoolConfig() PoolConfig {
	return PoolConfig{
		CapacityBytes: 256 << 20,
		ReadLatency:   50 * sim.Nanosecond,
		PsPerByte:     sim.Time(10), // 100 GB/s
	}
}

// Boot-time constants from §3.5.
const (
	// ColdBootTime is instance initialization without a snapshot.
	ColdBootTime = 300 * sim.Millisecond
	// SnapshotBootFixed is the residual initialization after reading a
	// snapshot (the "<10ms" bound, minus the transfer itself).
	SnapshotBootFixed = 5 * sim.Millisecond
)

// Pool is the shared read-mostly memory chiplet of a cluster. It holds
// service snapshots with LRU eviction and serves bulk reads through a
// bandwidth-limited port.
type Pool struct {
	cfg      PoolConfig
	used     int
	entries  map[int]*Snapshot
	lruOrder []int // least recent first
	port     sim.Resource
	// Hits and Misses count snapshot fetch outcomes.
	Hits, Misses uint64
}

// NewPool builds an empty pool.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.CapacityBytes <= 0 {
		panic(fmt.Sprintf("memsim: invalid pool config %+v", cfg))
	}
	return &Pool{cfg: cfg, entries: make(map[int]*Snapshot)}
}

// Used reports occupied bytes.
func (p *Pool) Used() int { return p.used }

// Contains reports whether a snapshot for the service is resident.
func (p *Pool) Contains(serviceID int) bool {
	_, ok := p.entries[serviceID]
	return ok
}

func (p *Pool) touch(serviceID int) {
	for i, id := range p.lruOrder {
		if id == serviceID {
			p.lruOrder = append(p.lruOrder[:i], p.lruOrder[i+1:]...)
			break
		}
	}
	p.lruOrder = append(p.lruOrder, serviceID)
}

// Store inserts (or refreshes) a snapshot, evicting LRU snapshots as needed.
// Snapshots larger than the pool are rejected.
func (p *Pool) Store(s Snapshot) bool {
	if s.SizeBytes > p.cfg.CapacityBytes {
		return false
	}
	if old, ok := p.entries[s.ServiceID]; ok {
		p.used -= old.SizeBytes
		delete(p.entries, s.ServiceID)
	}
	for p.used+s.SizeBytes > p.cfg.CapacityBytes && len(p.lruOrder) > 0 {
		victim := p.lruOrder[0]
		p.lruOrder = p.lruOrder[1:]
		if v, ok := p.entries[victim]; ok {
			p.used -= v.SizeBytes
			delete(p.entries, victim)
		}
	}
	cp := s
	p.entries[s.ServiceID] = &cp
	p.used += s.SizeBytes
	p.touch(s.ServiceID)
	return true
}

// Fetch reads the service's snapshot through the pool port starting at now.
// It returns the completion time and whether the snapshot was resident; a
// miss returns now unchanged (the caller falls back to a cold boot).
func (p *Pool) Fetch(now sim.Time, serviceID int) (sim.Time, bool) {
	s, ok := p.entries[serviceID]
	if !ok {
		p.Misses++
		return now, false
	}
	p.Hits++
	p.touch(serviceID)
	transfer := p.cfg.PsPerByte * sim.Time(s.SizeBytes)
	return p.port.Acquire(now, transfer) + p.cfg.ReadLatency, true
}

// BootInstance computes when a new service instance becomes ready if its
// initialization starts at now: a snapshot fetch plus the fixed residual
// when resident, or a full cold boot otherwise.
func (p *Pool) BootInstance(now sim.Time, serviceID int) sim.Time {
	done, ok := p.Fetch(now, serviceID)
	if !ok {
		return now + ColdBootTime
	}
	return done + SnapshotBootFixed
}
