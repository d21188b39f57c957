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
	leaves int
	levels int
	p      LinkParams
	up     []*Link // node -> link to parent
	down   []*Link // node -> link from parent
	all    []*Link
}

// NewFatTree builds a binary fat-tree over `leaves` endpoints; leaves must
// be a power of two.
func NewFatTree(leaves int, p LinkParams) *FatTree {
	if leaves < 2 || leaves&(leaves-1) != 0 {
		panic("icn: fat-tree leaves must be a power of two >= 2")
	}
	f := &FatTree{leaves: leaves, p: p, up: make([]*Link, 2*leaves), down: make([]*Link, 2*leaves)}
	for n := leaves; n > 1; n >>= 1 {
		f.levels++
	}
	// Node numbering: heap order. Root = 1; children of k are 2k, 2k+1;
	// leaves occupy [leaves, 2*leaves). Links fatten toward the root —
	// bandwidth doubles per aggregation level, capped at 4× (practical
	// fat-trees cannot scale beachfront indefinitely).
	for k := 2; k < 2*leaves; k++ {
		parent := k / 2
		height := 0
		for n := k; n < leaves; n <<= 1 {
			height++
		}
		lp := p
		boost := height
		if boost > 2 {
			boost = 2
		}
		lp.PsPerByte = p.PsPerByte / (1 << boost)
		if lp.PsPerByte < 1 {
			lp.PsPerByte = 1
		}
		upl := newLink(k, parent, lp)
		downl := newLink(parent, k, lp)
		f.up[k] = upl
		f.down[k] = downl
		f.all = append(f.all, upl, downl)
	}
	return f
}

// Name implements Topology.
func (f *FatTree) Name() string { return "fat-tree" }

// NumEndpoints implements Topology.
func (f *FatTree) NumEndpoints() int { return f.leaves }

// Links implements Topology.
func (f *FatTree) Links() []*Link { return f.all }

// MaxHops implements Topology.
func (f *FatTree) MaxHops() int { return 2 * f.levels }

// Path implements Topology: up to the lowest common ancestor, then down.
// Leaves share one level, so the path climbs as many links from src as it
// then descends to dst.
func (f *FatTree) Path(buf []*Link, src, dst int, _ *rand.Rand) []*Link {
	if src < 0 || dst < 0 || src >= f.leaves || dst >= f.leaves {
		panic(pathError("fat-tree", src, dst, f.leaves))
	}
	a, b := src+f.leaves, dst+f.leaves
	hops := 0
	for ; a != b; hops++ {
		buf = append(buf, f.up[a])
		a /= 2
		b /= 2
	}
	b = dst + f.leaves
	for i := hops - 1; i >= 0; i-- {
		buf = append(buf, f.down[b>>i])
	}
	return buf
}

// NodeCount returns the total number of network hubs (2*leaves - 1),
// reported to verify the paper's "63 NHs" configuration.
func (f *FatTree) NodeCount() int { return 2*f.leaves - 1 }

// DeliverToRoot walks the ascending links from a leaf to the root, where the
// package's top-level NIC and memory controllers attach, starting at now like
// Deliver; it returns the arrival time at the root and the hop count.
// Storage/external traffic leaves the package this way.
func (f *FatTree) DeliverToRoot(now sim.Time, leaf, sizeBytes int, contention bool) (sim.Time, int) {
	if leaf < 0 || leaf >= f.leaves {
		panic(pathError("fat-tree", leaf, 0, f.leaves))
	}
	for n := leaf + f.leaves; n > 1; n /= 2 {
		now = f.up[n].Traverse(now, sizeBytes, contention)
	}
	return now, f.levels
}

// DeliverFromRoot walks the descending links from the root to a leaf,
// starting at now like Deliver; it returns the arrival time at the leaf and
// the hop count.
func (f *FatTree) DeliverFromRoot(now sim.Time, leaf, sizeBytes int, contention bool) (sim.Time, int) {
	if leaf < 0 || leaf >= f.leaves {
		panic(pathError("fat-tree", leaf, 0, f.leaves))
	}
	n := leaf + f.leaves
	for i := f.levels - 1; i >= 0; i-- {
		now = f.down[n>>i].Traverse(now, sizeBytes, contention)
	}
	return now, f.levels
}

var _ Topology = (*FatTree)(nil)
