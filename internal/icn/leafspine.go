package icn

import "math/rand"

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
	pods      int
	leavesPer int
	l2PerPod  int
	l3Count   int
	sel       SpineSelect
	leafUp    [][]*Link // [leaf][l2local] leaf -> L2
	leafDown  [][]*Link // [leaf][l2local] L2 -> leaf
	l2Up      [][]*Link // [l2global][l3] L2 -> L3
	l2Down    [][]*Link // [l2global][l3] L3 -> L2
	all       []*Link
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

// NewLeafSpine builds the topology.
func NewLeafSpine(cfg LeafSpineConfig, p LinkParams) *LeafSpine {
	if cfg.Pods <= 0 || cfg.LeavesPerPod <= 0 || cfg.L2PerPod <= 0 || cfg.L3Count <= 0 {
		panic("icn: leaf-spine dimensions must be positive")
	}
	ls := &LeafSpine{
		pods: cfg.Pods, leavesPer: cfg.LeavesPerPod,
		l2PerPod: cfg.L2PerPod, l3Count: cfg.L3Count,
		sel: cfg.Select,
	}
	nLeaves := cfg.Pods * cfg.LeavesPerPod
	nL2 := cfg.Pods * cfg.L2PerPod
	// The links live in one slab, and the four routing tables are carved
	// from one backing array of link pointers.
	nLinks := 2 * (nLeaves*cfg.L2PerPod + nL2*cfg.L3Count)
	slab := newLinkSlab(nLinks)
	tables := make([]*Link, nLinks)
	carve := func(rows, cols int) [][]*Link {
		out := make([][]*Link, rows)
		for r := range out {
			out[r] = tables[:cols:cols]
			tables = tables[cols:]
		}
		return out
	}
	ls.leafUp = carve(nLeaves, cfg.L2PerPod)
	ls.leafDown = carve(nLeaves, cfg.L2PerPod)
	ls.l2Up = carve(nL2, cfg.L3Count)
	ls.l2Down = carve(nL2, cfg.L3Count)
	for leaf := 0; leaf < nLeaves; leaf++ {
		pod := leaf / cfg.LeavesPerPod
		for s := 0; s < cfg.L2PerPod; s++ {
			l2 := pod*cfg.L2PerPod + s
			ls.leafUp[leaf][s] = slab.add(leaf, nLeaves+l2, p)
			ls.leafDown[leaf][s] = slab.add(nLeaves+l2, leaf, p)
		}
	}
	for l2 := 0; l2 < nL2; l2++ {
		for t := 0; t < cfg.L3Count; t++ {
			ls.l2Up[l2][t] = slab.add(nLeaves+l2, nLeaves+nL2+t, p)
			ls.l2Down[l2][t] = slab.add(nLeaves+nL2+t, nLeaves+l2, p)
		}
	}
	ls.all = slab.all
	return ls
}

// Name implements Topology.
func (ls *LeafSpine) Name() string { return "leaf-spine" }

// NumEndpoints implements Topology (the leaves).
func (ls *LeafSpine) NumEndpoints() int { return ls.pods * ls.leavesPer }

// Links implements Topology.
func (ls *LeafSpine) Links() []*Link { return ls.all }

// MaxHops implements Topology.
func (ls *LeafSpine) MaxHops() int { return 4 }

// NodeCount returns the number of NHs (leaves + L2 + L3); the paper's
// configuration yields 56.
func (ls *LeafSpine) NodeCount() int {
	return ls.pods*ls.leavesPer + ls.pods*ls.l2PerPod + ls.l3Count
}

func (ls *LeafSpine) pickL2(leaf int, rng *rand.Rand, now0 *Link) int {
	switch ls.sel {
	case LeastLoadedSpine:
		best, bestT := 0, ls.leafUp[leaf][0].BusyUntil()
		for s := 1; s < ls.l2PerPod; s++ {
			if t := ls.leafUp[leaf][s].BusyUntil(); t < bestT {
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
		best, bestT := 0, ls.l2Up[l2][0].BusyUntil()
		for t := 1; t < ls.l3Count; t++ {
			if bt := ls.l2Up[l2][t].BusyUntil(); bt < bestT {
				best, bestT = t, bt
			}
		}
		return best
	default:
		return rng.Intn(ls.l3Count)
	}
}

// Path implements Topology: 2 hops intra-pod, 4 hops inter-pod, with the
// spine at each level chosen by the ECMP policy.
func (ls *LeafSpine) Path(buf []*Link, src, dst int, rng *rand.Rand) []*Link {
	n := ls.NumEndpoints()
	if src < 0 || dst < 0 || src >= n || dst >= n {
		panic(pathError("leaf-spine", src, dst, n))
	}
	if src == dst {
		return buf
	}
	srcPod := src / ls.leavesPer
	dstPod := dst / ls.leavesPer
	s := ls.pickL2(src, rng, nil)
	if srcPod == dstPod {
		return append(buf, ls.leafUp[src][s], ls.leafDown[dst][s])
	}
	srcL2 := srcPod*ls.l2PerPod + s
	t := ls.pickL3(srcL2, rng)
	// Descend via the same local spine index in the destination pod; the
	// L3 connects to every L2, so any choice is equal-cost. Reuse s for
	// determinism given the rng draws.
	dstL2 := dstPod*ls.l2PerPod + s
	return append(buf,
		ls.leafUp[src][s],
		ls.l2Up[srcL2][t],
		ls.l2Down[dstL2][t],
		ls.leafDown[dst][s],
	)
}

var _ Topology = (*LeafSpine)(nil)
