package icn

import "math/rand"

// Mesh is a W×H 2D mesh with XY dimension-order routing (the ServerClass
// baseline's ICN). Every router is an endpoint.
type Mesh struct {
	w, h int
	// east, west, south and north hold, per router, the link to its
	// neighbour at x+1, x-1, y+1 and y-1 (nil on the mesh's edge).
	east, west, south, north []*Link
	all                      []*Link
}

// NewMesh builds a W×H mesh.
func NewMesh(w, h int, p LinkParams) *Mesh {
	if w <= 0 || h <= 0 {
		panic("icn: mesh dimensions must be positive")
	}
	n := w * h
	// The four neighbour tables share one backing array; the links live in
	// one slab.
	tables := make([]*Link, 4*n)
	slab := newLinkSlab(2 * (h*(w-1) + w*(h-1)))
	m := &Mesh{w: w, h: h,
		east: tables[:n:n], west: tables[n : 2*n : 2*n],
		south: tables[2*n : 3*n : 3*n], north: tables[3*n:]}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := y*w + x
			if x+1 < w {
				m.east[id] = slab.add(id, id+1, p)
				m.west[id+1] = slab.add(id+1, id, p)
			}
			if y+1 < h {
				m.south[id] = slab.add(id, id+w, p)
				m.north[id+w] = slab.add(id+w, id, p)
			}
		}
	}
	m.all = slab.all
	return m
}

// Name implements Topology.
func (m *Mesh) Name() string { return "mesh" }

// NumEndpoints implements Topology.
func (m *Mesh) NumEndpoints() int { return m.w * m.h }

// Links implements Topology.
func (m *Mesh) Links() []*Link { return m.all }

// MaxHops implements Topology.
func (m *Mesh) MaxHops() int { return (m.w - 1) + (m.h - 1) }

// Path implements Topology with XY routing: move along X to the destination
// column, then along Y.
func (m *Mesh) Path(buf []*Link, src, dst int, _ *rand.Rand) []*Link {
	n := m.w * m.h
	if src < 0 || dst < 0 || src >= n || dst >= n {
		panic(pathError("mesh", src, dst, n))
	}
	x, y := src%m.w, src/m.w
	dx, dy := dst%m.w, dst/m.w
	for ; x < dx; x++ {
		buf = append(buf, m.east[y*m.w+x])
	}
	for ; x > dx; x-- {
		buf = append(buf, m.west[y*m.w+x])
	}
	for ; y < dy; y++ {
		buf = append(buf, m.south[y*m.w+x])
	}
	for ; y > dy; y-- {
		buf = append(buf, m.north[y*m.w+x])
	}
	return buf
}

var _ Topology = (*Mesh)(nil)
