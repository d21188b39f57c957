package icn

import (
	"math/rand"

	"umanycore/internal/sim"
)

// Mesh is a W×H 2D mesh with XY dimension-order routing (the ServerClass
// baseline's ICN). Every router is an endpoint; router (x, y) is y*W+x.
type Mesh struct {
	fabric
	w, h int
}

// NewMesh builds a W×H mesh. Its slab holds, for each router (x, y) with a
// neighbour at x+1, the pair eastward, westward; then, for each router with
// a neighbour at y+1, the pair southward, northward.
func NewMesh(w, h int, p LinkParams) *Mesh {
	if w <= 0 || h <= 0 {
		panic("icn: mesh dimensions must be positive")
	}
	return &Mesh{fabric: newFabric(p, 2*(h*(w-1)+w*(h-1))), w: w, h: h}
}

// east is the slab index of the link from (x, y) to (x+1, y); the link back
// west follows it.
func (m *Mesh) east(x, y int) int { return 2 * (y*(m.w-1) + x) }

// south is the slab index of the link from (x, y) to (x, y+1); the link back
// north follows it.
func (m *Mesh) south(x, y int) int { return 2 * (m.h*(m.w-1) + y*m.w + x) }

// Name implements Topology.
func (m *Mesh) Name() string { return "mesh" }

// NumEndpoints implements Topology.
func (m *Mesh) NumEndpoints() int { return m.w * m.h }

// MaxHops implements Topology.
func (m *Mesh) MaxHops() int { return (m.w - 1) + (m.h - 1) }

// Deliver implements Topology with XY routing: move along X to the
// destination column, then along Y.
func (m *Mesh) Deliver(now sim.Time, src, dst, sizeBytes int, _ *rand.Rand, contention bool) (sim.Time, int) {
	n := m.w * m.h
	if src < 0 || dst < 0 || src >= n || dst >= n {
		panic(pathError("mesh", src, dst, n))
	}
	ser := m.ser(sizeBytes)
	x, y := src%m.w, src/m.w
	dx, dy := dst%m.w, dst/m.w
	hops := 0
	for ; x < dx; x++ {
		now = m.cross(m.east(x, y), now, ser, contention)
		hops++
	}
	for ; x > dx; x-- {
		now = m.cross(m.east(x-1, y)+1, now, ser, contention)
		hops++
	}
	for ; y < dy; y++ {
		now = m.cross(m.south(x, y), now, ser, contention)
		hops++
	}
	for ; y > dy; y-- {
		now = m.cross(m.south(x, y-1)+1, now, ser, contention)
		hops++
	}
	return now, hops
}

// ToIO implements Topology: the package I/O attaches at router 0, the
// mesh's corner.
func (m *Mesh) ToIO(now sim.Time, src, sizeBytes int, rng *rand.Rand, contention bool) (sim.Time, int) {
	return m.Deliver(now, src, 0, sizeBytes, rng, contention)
}

// FromIO implements Topology.
func (m *Mesh) FromIO(now sim.Time, dst, sizeBytes int, rng *rand.Rand, contention bool) (sim.Time, int) {
	return m.Deliver(now, 0, dst, sizeBytes, rng, contention)
}

var _ Topology = (*Mesh)(nil)
