package machine

import (
	"fmt"
	"math"

	"umanycore/internal/obs"
	"umanycore/internal/sim"
)

// StageSpeedups virtually accelerates pipeline stages for causal profiling
// (Config.WhatIf): each field removes that fraction of the stage's simulated
// cost, the virtual-speedup experiment of Coz-style what-if profiling. 0
// (the zero value) leaves the stage untouched, 0.25 runs it at 75% of its
// configured cost, 1 eliminates it entirely; negative values model
// slowdowns. Values above 1 (negative cost) are rejected by Validate.
//
// The speedups scale the *cost parameters* a stage charges — queue-lock
// critical sections, context save/restore cycles, RPC taxes, storage round
// trips, ICN/NIC wire legs — not the emergent waiting they cause, so
// queueing feedback (shorter occupancy → shorter queues → smaller tail)
// plays out for real in the simulation. That is the entire point: the p99
// payoff of a speedup routinely differs from the stage's blame share, and
// only re-running the world reveals by how much.
type StageSpeedups struct {
	// Sched scales queue-operation critical sections: enqueue, dequeue and
	// steal costs (including the software lock-contention factor).
	Sched float64
	// CS scales context save/restore (Policy.CSCycles) on block and resume.
	CS float64
	// Mem scales the cross-core resume penalties (global-coherence
	// directory misses, village-local resume).
	Mem float64
	// RPC scales the software RPC taxes: receive, send and response-resume
	// processing cycles.
	RPC float64
	// Storage scales the full storage access latency (network round trip
	// plus device service time, lossy or lossless path).
	Storage float64
	// Net scales the on-package wire legs: ICN traversals and NIC hardware
	// delay for child RPCs, responses and I/O funnel traffic. The
	// inter-server RTT legs of a coupled fleet are deliberately NOT scaled:
	// the PDES coupling's conservative lookahead is InterServerRTT/2, and
	// keeping those legs intact keeps every cross-server message at least
	// one lookahead after its sender's clock.
	Net float64
}

// IsZero reports whether no virtual speedup is requested (the baseline).
func (s StageSpeedups) IsZero() bool { return s == StageSpeedups{} }

// Validate rejects speedups that would make a stage cost negative (or are
// not finite numbers).
func (s StageSpeedups) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Sched", s.Sched}, {"CS", s.CS}, {"Mem", s.Mem},
		{"RPC", s.RPC}, {"Storage", s.Storage}, {"Net", s.Net},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v > 1 {
			return fmt.Errorf("machine: what-if speedup %s = %v outside (-inf, 1]", f.name, f.v)
		}
	}
	return nil
}

// SpeedupStages returns the stages a StageSpeedups can virtually
// accelerate, in pipeline order. Queue wait and service time are absent by
// design: queueing is emergent (it shrinks as a consequence of other
// speedups), and service time is the workload's own compute, not a tax.
func SpeedupStages() []obs.Stage {
	return []obs.Stage{
		obs.StageSched, obs.StageCS, obs.StageMem,
		obs.StageRPC, obs.StageStorage, obs.StageNet,
	}
}

// SetStage sets the speedup for one accelerable stage, reporting false for
// stages what-if cannot accelerate.
func (s *StageSpeedups) SetStage(st obs.Stage, speedup float64) bool {
	switch st {
	case obs.StageSched:
		s.Sched = speedup
	case obs.StageCS:
		s.CS = speedup
	case obs.StageMem:
		s.Mem = speedup
	case obs.StageRPC:
		s.RPC = speedup
	case obs.StageStorage:
		s.Storage = speedup
	case obs.StageNet:
		s.Net = speedup
	default:
		return false
	}
	return true
}

// stageScale is StageSpeedups converted to cost multipliers (factor =
// 1 - speedup), the form the hot paths consume. The zero Config yields all
// ones, and shrink is exact at factor 1, so baseline runs are bit-identical
// to builds without the what-if layer.
type stageScale struct {
	sched, cs, mem, rpc, storage, net float64
}

// scales converts fraction-removed speedups to cost multipliers.
func (s StageSpeedups) scales() stageScale {
	return stageScale{
		sched:   1 - s.Sched,
		cs:      1 - s.CS,
		mem:     1 - s.Mem,
		rpc:     1 - s.RPC,
		storage: 1 - s.Storage,
		net:     1 - s.Net,
	}
}

// shrink applies a what-if cost multiplier to the interval [from, to]: it
// returns from + f*(to-from). At f == 1 it returns to exactly (no float
// round trip), so unscaled stages cost precisely what they always did.
func shrink(from, to sim.Time, f float64) sim.Time {
	if f == 1 || to <= from {
		return to
	}
	return from + sim.Time(f*float64(to-from))
}

// costTable holds every fixed cycle cost the event path charges, each
// converted to time and what-if scaled once, at construction, by the
// expression the event path would otherwise evaluate per event.
type costTable struct {
	cs            sim.Time // context save or restore (Policy.CSCycles)
	rpcProc       sim.Time // RPC receive processing on first dispatch
	resumeProc    sim.Time // response deserialization on resume
	sendProc      sim.Time // send processing per child RPC
	coherence     sim.Time // resume on another core under global coherence
	villageResume sim.Time // resume on another core of the village
	steal         sim.Time // software work-steal (Policy.StealCycles)
	// enqueue and dequeue are the queue critical sections, scaled by the
	// software-lock factor, which is the same for every domain of a
	// machine.
	enqueue, dequeue sim.Time
}

func newCostTable(cfg *Config, sp stageScale) costTable {
	scaled := func(cycles int, f float64) sim.Time { return shrink(0, cfg.CyclesToTime(cycles), f) }
	lock := newLockFactor(cfg.Policy, cfg.Cores/cfg.Domains)
	locked := func(cycles int) sim.Time {
		return shrink(0, sim.Time(float64(cfg.CyclesToTime(cycles))*lock), sp.sched)
	}
	return costTable{
		cs:            scaled(cfg.Policy.CSCycles, sp.cs),
		rpcProc:       scaled(cfg.RPCProcCycles, sp.rpc),
		resumeProc:    scaled(cfg.ResumeProcCycles, sp.rpc),
		sendProc:      scaled(cfg.SendProcCycles, sp.rpc),
		coherence:     scaled(coherencePenaltyCycles, sp.mem),
		villageResume: scaled(villageResumePenaltyCycles, sp.mem),
		steal:         scaled(cfg.Policy.StealCycles, sp.sched),
		enqueue:       locked(cfg.Policy.EnqueueCycles),
		dequeue:       locked(cfg.Policy.DequeueCycles),
	}
}
