// Package machine is the end-to-end server model: cores organized into
// scheduling domains (villages / clusters / one big multicore), an
// on-package ICN, per-domain request queues (hardware RQ or software
// queues), context-switch engines, NIC/RPC processing, and the request
// lifecycle of microservice invocations (compute segments separated by
// blocking storage accesses and synchronous child RPCs).
//
// One parametric Machine covers all three processors of the paper —
// μManycore, ScaleOut and ServerClass — plus every intermediate design point
// the evaluation needs: the Fig 3 queue-count sweep, the Fig 6
// context-switch-overhead sweep, the Fig 7 topology/contention study, the
// Fig 15 cumulative technique breakdown, and the Fig 19 topology
// sensitivity sweep.
package machine

import (
	"fmt"
	"math"

	"umanycore/internal/icn"
	"umanycore/internal/sched"
	"umanycore/internal/sim"
)

// TopoKind selects the on-package interconnect.
type TopoKind int

// Topology kinds.
const (
	MeshTopo TopoKind = iota
	FatTreeTopo
	LeafSpineTopo
)

func (t TopoKind) String() string {
	switch t {
	case MeshTopo:
		return "mesh"
	case FatTreeTopo:
		return "fat-tree"
	case LeafSpineTopo:
		return "leaf-spine"
	default:
		return fmt.Sprintf("topo(%d)", int(t))
	}
}

// Placement selects how incoming service requests map to domains.
type Placement int

// Placement policies.
const (
	// PinnedPlacement routes each service to the domains hosting its
	// instances, round-robin, through the top-level NIC's dispatch table
	// (μManycore §4.2).
	PinnedPlacement Placement = iota
	// RandomPlacement routes each request to a uniformly random domain
	// (the ScaleOut/ServerClass baselines; global coherence lets any core
	// run anything).
	RandomPlacement
)

// Config parameterizes a Machine.
type Config struct {
	Name string

	// Cores and clocking.
	Cores   int
	FreqGHz float64
	// PerfFactor divides workload compute time: 1.0 for the small A15-like
	// core, ≈2.2 for the 6-issue 3GHz ServerClass core (frequency × IPC).
	PerfFactor float64

	// Scheduling organization: Cores are split evenly across Domains; each
	// domain has one queue and requests migrate freely only within their
	// domain.
	Domains   int
	Policy    sched.Policy
	Placement Placement
	// CentralDispatcher serializes every scheduling operation of a
	// Centralized policy through ONE machine-wide dispatcher core (faithful
	// Shinjuku, §4.4: "this centralized software easily becomes a
	// bottleneck"). When false, each domain has its own dispatcher.
	CentralDispatcher bool
	// TreeAffinity pins a request's entire invocation tree to the domain
	// its root was assigned (the Fig 3 semantic: "requests are assigned to
	// queues randomly" — whole requests, with migration only via work
	// stealing). Without it, each invocation routes through the dispatch
	// table or random placement independently. On a hardware RQ it needs
	// NICBufCapacity 0.
	TreeAffinity bool
	// RQCapacity is the hardware RQ size (paper: 64); software queues are
	// unbounded (kernel run queues don't reject).
	RQCapacity int
	// NICBufCapacity is the per-domain NIC overflow buffer (hardware RQ
	// path only).
	NICBufCapacity int

	// Interconnect.
	Topo TopoKind
	// The topology's dimensions fix its endpoint count, and domains map
	// onto endpoints evenly: MeshW×MeshH for a mesh, the leaf count for a
	// tree (FatTreeLeaves, or LeafSpineCfg's pods × leaves per pod).
	MeshW, MeshH  int
	LeafSpineCfg  icn.LeafSpineConfig
	FatTreeLeaves int
	ICNContention bool

	// Coherence. GlobalCoherence charges a directory/remote-cache penalty
	// (coherencePenaltyCycles) when a blocked request resumes on a
	// different core and injects coherence traffic into the ICN;
	// village-scale coherence pays only a small local penalty
	// (villageResumePenaltyCycles).
	GlobalCoherence bool

	// Storage.
	// StorageLossProb, when positive, makes the external storage network
	// lossy: storage requests go through a per-cluster R-NIC with
	// retransmission and AIMD congestion control (§4.1). Zero keeps the
	// lossless fixed-RTT model.
	StorageLossProb float64
	// IOViaICN routes storage and external (client) messages across the
	// on-package ICN to the package I/O endpoint (endpoint 0) — the
	// mesh-corner / tree-root funnel of conventional designs. μManycore's
	// village R-ports connect through their cluster NH's inter-package port
	// directly to the top-level NIC (Fig 12), bypassing the spine, so it
	// sets this false.
	IOViaICN bool

	// Fleet coupling: fraction of child RPCs that target another server,
	// paying RemoteRTT extra each way. Zero for single-server studies.
	RemoteCallFrac float64
	RemoteRTT      sim.Time

	// WhatIf virtually accelerates pipeline stages for causal profiling:
	// each field removes that fraction of the stage's configured cost (0 =
	// unchanged, 1 = eliminated). The zero value changes nothing. See
	// StageSpeedups and internal/whatif.
	WhatIf StageSpeedups

	// Extensions enables the optional features beyond the paper's evaluated
	// design (co-location, RQ partitioning, core stealing, heterogeneous
	// villages); see ExtensionConfig.
	Extensions ExtensionConfig
}

// CyclesToTime converts core cycles at this machine's frequency to sim time.
func (c *Config) CyclesToTime(cycles int) sim.Time {
	return sim.Time(float64(cycles) * 1000.0 / c.FreqGHz)
}

// Validate checks structural consistency, extensions included: a config it
// accepts builds a machine without panicking.
func (c *Config) Validate() error {
	if c.Cores <= 0 || c.Domains <= 0 || c.Cores < c.Domains {
		return fmt.Errorf("machine: bad cores/domains %d/%d", c.Cores, c.Domains)
	}
	if c.Cores%c.Domains != 0 {
		return fmt.Errorf("machine: cores %d not divisible by domains %d", c.Cores, c.Domains)
	}
	if !(c.FreqGHz > 0) || !(c.PerfFactor > 0) {
		return fmt.Errorf("machine: bad freq/perf %v/%v", c.FreqGHz, c.PerfFactor)
	}
	switch c.Topo {
	case MeshTopo:
		if c.MeshW <= 0 || c.MeshH <= 0 {
			return fmt.Errorf("machine: mesh dims %dx%d not positive", c.MeshW, c.MeshH)
		}
	case FatTreeTopo:
		if c.FatTreeLeaves < 2 || c.FatTreeLeaves&(c.FatTreeLeaves-1) != 0 {
			return fmt.Errorf("machine: fat-tree leaves %d not a power of two >= 2", c.FatTreeLeaves)
		}
	case LeafSpineTopo:
		if ls := c.LeafSpineCfg; ls.Pods <= 0 || ls.LeavesPerPod <= 0 || ls.L2PerPod <= 0 || ls.L3Count <= 0 {
			return fmt.Errorf("machine: leaf-spine dims %+v not positive", ls)
		}
	default:
		return fmt.Errorf("machine: unknown topology %v", c.Topo)
	}
	if c.Placement != PinnedPlacement && c.Placement != RandomPlacement {
		return fmt.Errorf("machine: unknown placement %d", c.Placement)
	}
	// A negative cost would schedule an event before the current time.
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Policy.CSCycles", int64(c.Policy.CSCycles)},
		{"Policy.DequeueCycles", int64(c.Policy.DequeueCycles)},
		{"Policy.EnqueueCycles", int64(c.Policy.EnqueueCycles)},
		{"Policy.StealCycles", int64(c.Policy.StealCycles)},
		{"RemoteRTT", int64(c.RemoteRTT)},
	} {
		if f.v < 0 {
			return fmt.Errorf("machine: negative %s %d", f.name, f.v)
		}
	}
	if !(c.StorageLossProb >= 0 && c.StorageLossProb < 1) {
		return fmt.Errorf("machine: storage loss probability %v outside [0, 1)", c.StorageLossProb)
	}
	if c.Policy.HardwareRQ && c.RQCapacity <= 0 {
		return fmt.Errorf("machine: hardware RQ needs capacity")
	}
	if c.RQCapacity > math.MaxInt32 {
		return fmt.Errorf("machine: RQ capacity %d above %d", c.RQCapacity, math.MaxInt32)
	}
	if c.NICBufCapacity < 0 || c.NICBufCapacity > math.MaxInt32 {
		return fmt.Errorf("machine: NIC buffer capacity %d outside [0, %d]", c.NICBufCapacity, math.MaxInt32)
	}
	// Under TreeAffinity a tree's children queue in the root's village,
	// where blocked parents hold RQ entries; a child staged in the NIC
	// buffer behind its own parent can wait forever.
	if c.TreeAffinity && c.Policy.HardwareRQ && c.NICBufCapacity > 0 {
		return fmt.Errorf("machine: TreeAffinity with Policy.HardwareRQ needs NICBufCapacity 0, not %d: "+
			"children staged behind their blocked parents never dequeue", c.NICBufCapacity)
	}
	if err := c.Extensions.Validate(c); err != nil {
		return err
	}
	if err := c.WhatIf.Validate(); err != nil {
		return err
	}
	return nil
}

// checkHosting reports why pinned placement cannot give each of n hosted
// services a domain, or nil. A domain hosts one service, or
// ColocatedServices of them on a co-locating mix machine (colocate; a
// placed fleet server never co-locates).
func (c *Config) checkHosting(n int, colocate bool) error {
	per := 1
	if colocate {
		per = max(1, c.Extensions.ColocatedServices)
	}
	if c.Placement == PinnedPlacement && n > 0 && (n-1)/per >= c.Domains {
		return fmt.Errorf("machine: pinned placement of %d services, %d per domain, needs %d domains, but Domains is %d",
			n, per, (n-1)/per+1, c.Domains)
	}
	return nil
}

// Defaults shared by the presets, and the RPC costs newCostTable derives
// from Policy.HardwareRQ.
const (
	defaultRQCapacity = 64
	defaultNICBufCap  = 256
	smallCorePerf     = 1.0

	// The software "RPC tax" (Cerebros, MICRO'21): cycles a software stack
	// spends on its cores per received RPC (header parsing,
	// deserialization, dispatch), per sent RPC, and per processed
	// response. A machine with software queues pays them; μManycore's NIC
	// performs all of this in hardware (§4.3) and enqueues straight into
	// the hardware RQ, so a Policy.HardwareRQ machine pays none of it on
	// cores and hwNICDelay off-core per message instead (newCostTable).
	softwareReceiveTax = 48000 // 16μs @3GHz, 24μs @2GHz
	softwareSendTax    = 15000
	softwareResumeTax  = 15000
	hwNICDelay         = 200 * sim.Nanosecond
)

// Calibration constants every machine shares (DESIGN.md §5). The tests in
// calibration_test.go check the measured ones against the models that
// justify them.
const (
	// serverClassPerf is the big core's speedup on *microservice* code:
	// 1.5× frequency and a modest 1.1× IPC gain — per the paper's Fig 1,
	// big-core microarchitecture barely helps these workloads. Calibrated
	// by internal/memmodel.
	serverClassPerf = 1.65
	// coherencePenaltyCycles is charged on a cross-core resume under
	// global coherence, villageResumePenaltyCycles on one within a village
	// (the resuming core re-fetches the request's dirty lines). Calibrated
	// by internal/coherence.
	coherencePenaltyCycles     = 600
	villageResumePenaltyCycles = 100
	// ingressLatency is top-level-NIC-to-leaf delivery for external
	// requests, and the reverse for responses.
	ingressLatency = 500 * sim.Nanosecond
	// storageRTT is the network round trip to remote storage (Table 2:
	// 1μs inter-server).
	storageRTT = 1 * sim.Microsecond
	// Message sizes on the ICN. RPC requests carry arguments (~1KB);
	// responses carry payloads (timelines, posts — ~4KB). Storage accesses
	// write small keys and read ~1KB objects.
	reqMsgBytes      = 1024
	respMsgBytes     = 4096
	storageReqBytes  = 128
	storageRespBytes = 1024
)

// chipletLink is the on-package D2D link timing: 5 cycles/hop (Table 2)
// and ~1.7GB/s per serial chiplet link — beachfront-limited PHYs, the
// regime where Fig 7's contention effects appear.
var chipletLink = icn.LinkParams{HopLatency: 2500 * sim.Picosecond, PsPerByte: 600}

// UManycoreConfig returns the paper's default μManycore: 1024 cores, 128
// villages of 8 cores, 32 clusters, hierarchical leaf-spine, hardware
// request queues and hardware context switching, no global coherence.
func UManycoreConfig() Config {
	return Config{
		Name:       "uManycore",
		Cores:      1024,
		FreqGHz:    2,
		PerfFactor: smallCorePerf,

		Domains:        128, // villages
		Policy:         sched.HardwareSched(),
		Placement:      PinnedPlacement,
		RQCapacity:     defaultRQCapacity,
		NICBufCapacity: defaultNICBufCap,

		Topo:          LeafSpineTopo,
		LeafSpineCfg:  icn.PaperLeafSpine(),
		ICNContention: true,
		IOViaICN:      false,

		GlobalCoherence: false,
	}
}

// ScaleOutConfig returns the ScaleOut baseline: the same 1024 small cores
// and cache hierarchy, but global coherence, a fat-tree ICN (32 leaves → 63
// NHs), one software queue per 32-core cluster (the favored baseline of
// §6.2), Shinjuku-style software scheduling and context switching.
func ScaleOutConfig() Config {
	return Config{
		Name:       "ScaleOut",
		Cores:      1024,
		FreqGHz:    2,
		PerfFactor: smallCorePerf,

		// One queue per 32-core cluster with a per-cluster dispatcher — the
		// favored baseline of §6.2 (a single central dispatcher would
		// collapse outright at these loads; see Fig 3/Fig 6 experiments).
		Domains:   32,
		Policy:    sched.ShinjukuSched(),
		Placement: RandomPlacement,

		Topo:          FatTreeTopo,
		FatTreeLeaves: 32,
		ICNContention: true,
		IOViaICN:      true,

		GlobalCoherence: true,
	}
}

// ServerClassConfig returns the ServerClass baseline with n cores (40
// iso-power, 128 iso-area): big 6-issue 3GHz cores, a single scheduling
// domain with a centralized software scheduler, and a 2D-mesh ICN.
func ServerClassConfig(n int) Config {
	w, h := meshDims(n)
	return Config{
		Name:       fmt.Sprintf("ServerClass-%d", n),
		Cores:      n,
		FreqGHz:    3,
		PerfFactor: serverClassPerf,

		Domains:           1,
		Policy:            sched.ShinjukuSched(),
		Placement:         RandomPlacement,
		CentralDispatcher: true,

		Topo:          MeshTopo,
		MeshW:         w,
		MeshH:         h,
		ICNContention: true,
		IOViaICN:      true,

		GlobalCoherence: true,
	}
}

// meshDims factors n into the most square WxH grid.
func meshDims(n int) (int, int) {
	bestW, bestH := 1, n
	for w := 1; w*w <= n; w++ {
		if n%w == 0 {
			bestW, bestH = w, n/w
		}
	}
	return bestH, bestW
}

// UManycoreTopologyConfig returns the Fig 19 variants: coresPerVillage ×
// villagesPerCluster × clusters (the default is 8×4×32). Total cores stay
// 1024; the leaf-spine is resized so each cluster remains one leaf.
func UManycoreTopologyConfig(coresPerVillage, villagesPerCluster, clusters int) Config {
	cfg := UManycoreConfig()
	cfg.Name = fmt.Sprintf("uManycore-%dx%dx%d", coresPerVillage, villagesPerCluster, clusters)
	cfg.Cores = coresPerVillage * villagesPerCluster * clusters
	cfg.Domains = villagesPerCluster * clusters
	ls := icn.LeafSpineConfig{L2PerPod: 4, L3Count: 8}
	switch {
	case clusters >= 16:
		ls.Pods, ls.LeavesPerPod = 4, clusters/4
	case clusters >= 8:
		ls.Pods, ls.LeavesPerPod = 2, clusters/2
	default:
		ls.Pods, ls.LeavesPerPod = 1, clusters
	}
	cfg.LeafSpineCfg = ls
	return cfg
}

// Fig 15's cumulative technique ladder, starting from ScaleOut:
// +Villages, +Leaf-spine ICN, +HW scheduling, +HW context switch (the final
// rung is μManycore). Each step returns a new Config.

// WithVillages replaces global coherence and 32-core cluster queues with
// 8-core villages, pinned service placement, and village-scale coherence.
func WithVillages(c Config) Config {
	c.Name = c.Name + "+villages"
	c.Domains = c.Cores / 8
	c.Placement = PinnedPlacement
	c.GlobalCoherence = false
	return c
}

// WithLeafSpine replaces the ICN with the hierarchical leaf-spine.
func WithLeafSpine(c Config) Config {
	c.Name = c.Name + "+leafspine"
	c.Topo = LeafSpineTopo
	c.LeafSpineCfg = icn.PaperLeafSpine()
	// The leaf-spine design also gives every leaf NH a direct inter-package
	// port to the top-level NIC (Fig 12): storage and external traffic no
	// longer funnels through the on-package fabric.
	c.IOViaICN = false
	return c
}

// WithHWScheduling replaces software queues with the hardware RQ (keeping
// the software context-switch cost).
func WithHWScheduling(c Config) Config {
	c.Name = c.Name + "+hwsched"
	cs := c.Policy.CSCycles
	c.Policy = sched.HardwareSched()
	c.Policy.CSCycles = cs
	c.RQCapacity = defaultRQCapacity
	c.NICBufCapacity = defaultNICBufCap
	return c
}

// WithHWContextSwitch lowers the context-switch cost to the hardware
// engine's.
func WithHWContextSwitch(c Config) Config {
	c.Name = c.Name + "+hwcs"
	c.Policy.CSCycles = sched.HardwareCSCycles
	return c
}
