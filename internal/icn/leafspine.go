package icn

import (
	"math/rand"

	"umanycore/internal/sim"
)

// SpineSelect chooses among redundant equal-cost spine paths.
type SpineSelect int

// Spine selection policies.
const (
	// RandomSpine picks uniformly among spines (default ECMP).
	RandomSpine SpineSelect = iota
	// LeastLoadedSpine picks the spine whose first-hop link frees earliest —
	// an idealized adaptive-routing ablation.
	LeastLoadedSpine
)

// LeafSpine is μManycore's hierarchical leaf-spine ICN (Fig 12).
//
// Leaves (per-cluster network hubs) are grouped into pods. Within a pod,
// every leaf connects all-to-all to the pod's second-level NHs. Every
// second-level NH connects all-to-all to the third-level NHs, which join
// pods. Intra-pod paths take 2 hops (leaf→L2→leaf) with one redundant path
// per L2 spine; inter-pod paths take 4 hops (leaf→L2→L3→L2→leaf) with
// |L2/pod| × |L3| redundant paths. The paper's 1024-core configuration is
// 4 pods × 8 leaves, 4 L2 NHs per pod, 8 L3 NHs: 56 NHs, 4-hop worst case.
type LeafSpine struct {
	fabric
	pods      int
	leavesPer int
	l2PerPod  int
	l3Count   int
	sel       SpineSelect
}

// LeafSpineConfig sizes the topology.
type LeafSpineConfig struct {
	Pods         int
	LeavesPerPod int
	L2PerPod     int
	L3Count      int
	Select       SpineSelect
}

// PaperLeafSpine is the §5 configuration: 4 pods × 8 leaves, 4 L2 per pod,
// 8 L3.
func PaperLeafSpine() LeafSpineConfig {
	return LeafSpineConfig{Pods: 4, LeavesPerPod: 8, L2PerPod: 4, L3Count: 8}
}

// NewLeafSpine builds the topology. Its slab holds, for each leaf and each
// of its pod's L2 spines, the pair leaf→L2, L2→leaf; then, for each L2 and
// each L3, the pair L2→L3, L3→L2.
func NewLeafSpine(cfg LeafSpineConfig, p LinkParams) *LeafSpine {
	if cfg.Pods <= 0 || cfg.LeavesPerPod <= 0 || cfg.L2PerPod <= 0 || cfg.L3Count <= 0 {
		panic("icn: leaf-spine dimensions must be positive")
	}
	nLeaves := cfg.Pods * cfg.LeavesPerPod
	nL2 := cfg.Pods * cfg.L2PerPod
	return &LeafSpine{
		fabric: newFabric(p, 2*(nLeaves*cfg.L2PerPod+nL2*cfg.L3Count)),
		pods:   cfg.Pods, leavesPer: cfg.LeavesPerPod,
		l2PerPod: cfg.L2PerPod, l3Count: cfg.L3Count,
		sel: cfg.Select,
	}
}

// Name implements Topology.
func (ls *LeafSpine) Name() string { return "leaf-spine" }

// NumEndpoints implements Topology (the leaves).
func (ls *LeafSpine) NumEndpoints() int { return ls.pods * ls.leavesPer }

// MaxHops implements Topology.
func (ls *LeafSpine) MaxHops() int { return 4 }

// NodeCount returns the number of NHs (leaves + L2 + L3); the paper's
// configuration yields 56.
func (ls *LeafSpine) NodeCount() int {
	return ls.pods*ls.leavesPer + ls.pods*ls.l2PerPod + ls.l3Count
}

// leafUp is the slab index of the link from leaf to its pod's s-th L2; the
// link back down follows it.
func (ls *LeafSpine) leafUp(leaf, s int) int { return 2 * (leaf*ls.l2PerPod + s) }

// l2Up is the slab index of the link from L2 spine l2 (numbered across
// pods) to L3 spine t; the link back down follows it.
func (ls *LeafSpine) l2Up(l2, t int) int {
	return 2 * (ls.pods*(ls.leavesPer*ls.l2PerPod) + l2*ls.l3Count + t)
}

func (ls *LeafSpine) pickL2(leaf int, rng *rand.Rand) int {
	switch ls.sel {
	case LeastLoadedSpine:
		up := ls.links[ls.leafUp(leaf, 0):]
		best, bestT := 0, up[0].BusyUntil()
		for s := 1; s < ls.l2PerPod; s++ {
			if t := up[2*s].BusyUntil(); t < bestT {
				best, bestT = s, t
			}
		}
		return best
	default:
		return rng.Intn(ls.l2PerPod)
	}
}

func (ls *LeafSpine) pickL3(l2 int, rng *rand.Rand) int {
	switch ls.sel {
	case LeastLoadedSpine:
		up := ls.links[ls.l2Up(l2, 0):]
		best, bestT := 0, up[0].BusyUntil()
		for t := 1; t < ls.l3Count; t++ {
			if bt := up[2*t].BusyUntil(); bt < bestT {
				best, bestT = t, bt
			}
		}
		return best
	default:
		return rng.Intn(ls.l3Count)
	}
}

// Deliver implements Topology: 2 hops intra-pod, 4 hops inter-pod, with the
// spine at each level chosen by the ECMP policy before the message takes
// its first hop.
func (ls *LeafSpine) Deliver(now sim.Time, src, dst, sizeBytes int, rng *rand.Rand, contention bool) (sim.Time, int) {
	n := ls.NumEndpoints()
	if src < 0 || dst < 0 || src >= n || dst >= n {
		panic(pathError("leaf-spine", src, dst, n))
	}
	if src == dst {
		return now, 0
	}
	ser := ls.ser(sizeBytes)
	srcPod := src / ls.leavesPer
	dstPod := dst / ls.leavesPer
	s := ls.pickL2(src, rng)
	if srcPod == dstPod {
		now = ls.cross(ls.leafUp(src, s), now, ser, contention)
		return ls.cross(ls.leafUp(dst, s)+1, now, ser, contention), 2
	}
	srcL2 := srcPod*ls.l2PerPod + s
	t := ls.pickL3(srcL2, rng)
	// Descend via the same local spine index in the destination pod; the
	// L3 connects to every L2, so any choice is equal-cost. Reuse s for
	// determinism given the rng draws.
	dstL2 := dstPod*ls.l2PerPod + s
	now = ls.cross(ls.leafUp(src, s), now, ser, contention)
	now = ls.cross(ls.l2Up(srcL2, t), now, ser, contention)
	now = ls.cross(ls.l2Up(dstL2, t)+1, now, ser, contention)
	return ls.cross(ls.leafUp(dst, s)+1, now, ser, contention), 4
}

// ToIO implements Topology: the package I/O attaches at leaf 0.
func (ls *LeafSpine) ToIO(now sim.Time, src, sizeBytes int, rng *rand.Rand, contention bool) (sim.Time, int) {
	return ls.Deliver(now, src, 0, sizeBytes, rng, contention)
}

// FromIO implements Topology.
func (ls *LeafSpine) FromIO(now sim.Time, dst, sizeBytes int, rng *rand.Rand, contention bool) (sim.Time, int) {
	return ls.Deliver(now, 0, dst, sizeBytes, rng, contention)
}

var _ Topology = (*LeafSpine)(nil)
