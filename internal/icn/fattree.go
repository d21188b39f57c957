package icn

import (
	"math/rand"

	"umanycore/internal/sim"
)

// FatTree is a binary fat-tree over n leaf endpoints (the ScaleOut
// baseline's ICN). With 32 leaves it has 63 network hubs and a 10-hop
// longest path, matching the paper's §5 configuration. Routing ascends to
// the lowest common ancestor and descends; there is exactly one path per
// pair, so root-adjacent links concentrate cross-tree traffic — the
// contention behaviour Fig 7 exposes.
type FatTree struct {
	fabric
	leaves int
	levels int
}

// NewFatTree builds a binary fat-tree over `leaves` endpoints; leaves must
// be a power of two. Nodes are numbered in heap order: the root is 1, the
// children of k are 2k and 2k+1, and the leaves occupy [leaves, 2*leaves).
// Its slab holds, for each node k from 2 up, the pair k→parent,
// parent→k.
func NewFatTree(leaves int, p LinkParams) *FatTree {
	if leaves < 2 || leaves&(leaves-1) != 0 {
		panic("icn: fat-tree leaves must be a power of two >= 2")
	}
	f := &FatTree{fabric: newFabric(p, 2*(2*leaves-2)), leaves: leaves}
	for n := leaves; n > 1; n >>= 1 {
		f.levels++
	}
	return f
}

// upLink is the slab index of the link from node k to its parent; the link
// from the parent back down to k follows it.
func upLink(k int) int { return 2 * (k - 2) }

// serAt is the serialization time of sizeBytes over a link whose lower node
// sits height levels above the leaves. Links fatten toward the root —
// bandwidth doubles per aggregation level, capped at 4× (practical
// fat-trees cannot scale beachfront indefinitely) — but a link never
// serializes faster than 1 ps per byte.
func (f *FatTree) serAt(height, sizeBytes int) sim.Time {
	return max(1, f.p.PsPerByte>>min(height, 2)) * sim.Time(sizeBytes)
}

// Name implements Topology.
func (f *FatTree) Name() string { return "fat-tree" }

// NumEndpoints implements Topology.
func (f *FatTree) NumEndpoints() int { return f.leaves }

// MaxHops implements Topology.
func (f *FatTree) MaxHops() int { return 2 * f.levels }

// Deliver implements Topology: up to the lowest common ancestor, then down.
// Leaves share one level, so the route climbs as many links from src as it
// then descends to dst.
func (f *FatTree) Deliver(now sim.Time, src, dst, sizeBytes int, _ *rand.Rand, contention bool) (sim.Time, int) {
	if src < 0 || dst < 0 || src >= f.leaves || dst >= f.leaves {
		panic(pathError("fat-tree", src, dst, f.leaves))
	}
	a, b := src+f.leaves, dst+f.leaves
	h := 0
	for ; a != b; h++ {
		now = f.cross(upLink(a), now, f.serAt(h, sizeBytes), contention)
		a /= 2
		b /= 2
	}
	return f.descend(now, dst, h, sizeBytes, contention), 2 * h
}

// descend walks from leaf's ancestor h levels up down to leaf.
func (f *FatTree) descend(now sim.Time, leaf, h, sizeBytes int, contention bool) sim.Time {
	n := leaf + f.leaves
	for i := h - 1; i >= 0; i-- {
		now = f.cross(upLink(n>>i)+1, now, f.serAt(i, sizeBytes), contention)
	}
	return now
}

// NodeCount returns the total number of network hubs (2*leaves - 1),
// reported to verify the paper's "63 NHs" configuration.
func (f *FatTree) NodeCount() int { return 2*f.leaves - 1 }

// ToIO implements Topology: the package I/O attaches at the root, so the
// message climbs every level from its leaf.
func (f *FatTree) ToIO(now sim.Time, src, sizeBytes int, _ *rand.Rand, contention bool) (sim.Time, int) {
	if src < 0 || src >= f.leaves {
		panic(pathError("fat-tree", src, 0, f.leaves))
	}
	h := 0
	for n := src + f.leaves; n > 1; n /= 2 {
		now = f.cross(upLink(n), now, f.serAt(h, sizeBytes), contention)
		h++
	}
	return now, f.levels
}

// FromIO implements Topology: the message descends every level from the
// root to its leaf.
func (f *FatTree) FromIO(now sim.Time, dst, sizeBytes int, _ *rand.Rand, contention bool) (sim.Time, int) {
	if dst < 0 || dst >= f.leaves {
		panic(pathError("fat-tree", dst, 0, f.leaves))
	}
	return f.descend(now, dst, f.levels, sizeBytes, contention), f.levels
}

var _ Topology = (*FatTree)(nil)
