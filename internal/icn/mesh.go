package icn

import (
	"math/rand"

	"umanycore/internal/sim"
)

// Mesh is a W×H 2D mesh with XY dimension-order routing (the ServerClass
// baseline's ICN). Every router is an endpoint.
type Mesh struct {
	w, h int
	p    LinkParams
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
	m := &Mesh{w: w, h: h, p: p,
		east: make([]*Link, n), west: make([]*Link, n),
		south: make([]*Link, n), north: make([]*Link, n)}
	add := func(a, b int) *Link {
		l := newLink(a, b, p)
		m.all = append(m.all, l)
		return l
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := y*w + x
			if x+1 < w {
				m.east[id] = add(id, id+1)
				m.west[id+1] = add(id+1, id)
			}
			if y+1 < h {
				m.south[id] = add(id, id+w)
				m.north[id+w] = add(id+w, id)
			}
		}
	}
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

// Crossbar is an idealized single-hop full crossbar: every endpoint pair is
// joined by a dedicated link. It serves as a contention-light reference
// topology in tests and ablations (and as the intra-village fabric, whose
// geometry the paper does not model beyond the shared L2 latency).
type Crossbar struct {
	n     int
	p     LinkParams
	links map[[2]int]*Link
	all   []*Link
}

// NewCrossbar builds an n-endpoint crossbar.
func NewCrossbar(n int, p LinkParams) *Crossbar {
	if n <= 0 {
		panic("icn: crossbar size must be positive")
	}
	c := &Crossbar{n: n, p: p, links: make(map[[2]int]*Link)}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			l := newLink(a, b, p)
			c.links[[2]int{a, b}] = l
			c.all = append(c.all, l)
		}
	}
	return c
}

// Name implements Topology.
func (c *Crossbar) Name() string { return "crossbar" }

// NumEndpoints implements Topology.
func (c *Crossbar) NumEndpoints() int { return c.n }

// Links implements Topology.
func (c *Crossbar) Links() []*Link { return c.all }

// MaxHops implements Topology.
func (c *Crossbar) MaxHops() int { return 1 }

// Path implements Topology.
func (c *Crossbar) Path(buf []*Link, src, dst int, _ *rand.Rand) []*Link {
	if src < 0 || dst < 0 || src >= c.n || dst >= c.n {
		panic(pathError("crossbar", src, dst, c.n))
	}
	if src == dst {
		return buf
	}
	return append(buf, c.links[[2]int{src, dst}])
}

var _ Topology = (*Crossbar)(nil)

// meshHopCheck is a compile-time-ish helper for tests.
func meshCoord(m *Mesh, id int) (x, y int) { return id % m.w, id / m.w }

// silence unused warning when tests don't use it
var _ = meshCoord
var _ = sim.Time(0)
