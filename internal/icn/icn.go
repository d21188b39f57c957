// Package icn models the on-package interconnection networks of the paper:
// the 2D mesh used by the ServerClass baseline, the fat-tree used by the
// ScaleOut baseline (63 network hubs, 10-hop worst case), and μManycore's
// hierarchical leaf-spine (Fig 12: 32 leaf NHs in 4 pods, 16 second-level
// NHs, 8 third-level NHs, 4-hop worst case, many redundant paths).
//
// The model is flow-level: each directed link is a serially-reusable
// resource (busy-until bookkeeping). A message crossing a link first queues
// for the link's serialization slot (size / bandwidth), then pays the fixed
// per-hop pipeline latency (5 cycles contention-free, per Table 2).
// Queueing at congested links — the paper's source of tail inflation — falls
// out of the resource model; redundant leaf-spine paths reduce it by
// spreading serialization load.
package icn

import (
	"fmt"
	"math/rand"

	"umanycore/internal/sim"
)

// LinkParams sets the per-link timing.
type LinkParams struct {
	// HopLatency is the contention-free router+wire latency per hop.
	HopLatency sim.Time
	// PsPerByte is the serialization time per byte (inverse bandwidth).
	PsPerByte sim.Time
}

// Link is one directed channel between two routers, named by their
// indices.
type Link struct {
	From, To int32
	p        LinkParams
	res      sim.Resource
}

// Traverse schedules a message of size bytes onto the link at time now and
// returns its head arrival time at the next router. With contention disabled
// the link behaves as an infinite-capacity pipe (the Fig 7 normalization
// baseline).
func (l *Link) Traverse(now sim.Time, sizeBytes int, contention bool) sim.Time {
	ser := l.p.PsPerByte * sim.Time(sizeBytes)
	if contention {
		return l.res.Acquire(now, ser) + l.p.HopLatency
	}
	return now + ser + l.p.HopLatency
}

// QueueDelay reports the current backlog a message arriving now would see.
func (l *Link) QueueDelay(now sim.Time) sim.Time { return l.res.QueueDelay(now) }

// BusyUntil exposes the link's horizon for least-loaded path selection.
func (l *Link) BusyUntil() sim.Time { return l.res.BusyUntil() }

// Utilization reports the fraction of the window the link was busy.
func (l *Link) Utilization(window sim.Time) float64 { return l.res.Utilization(window) }

// Reset clears link contention state between experiment runs.
func (l *Link) Reset() { l.res.Reset() }

// Topology routes messages between endpoint routers.
type Topology interface {
	Name() string
	// NumEndpoints is the number of addressable endpoints (leaf routers for
	// trees, all routers for meshes).
	NumEndpoints() int
	// Path appends the ordered links from endpoint src to endpoint dst to
	// buf and returns the extended slice. src == dst appends nothing. rng
	// breaks ties among redundant equal-cost paths.
	Path(buf []*Link, src, dst int, rng *rand.Rand) []*Link
	// Links exposes every link (for utilization reports and resets).
	Links() []*Link
	// MaxHops is the longest possible path length.
	MaxHops() int
}

// Deliver walks the path from src to dst starting at now and returns the
// arrival time and hop count. It is the single entry point the machine
// models use. The path is built in buf's backing array, so a caller that
// reuses a buffer of capacity MaxHops() routes without allocating.
func Deliver(t Topology, buf []*Link, now sim.Time, src, dst, sizeBytes int, rng *rand.Rand, contention bool) (sim.Time, int) {
	path := t.Path(buf[:0], src, dst, rng)
	at := now
	for _, l := range path {
		at = l.Traverse(at, sizeBytes, contention)
	}
	return at, len(path)
}

// MaxUtilization returns the hottest link's utilization — the quantity that
// predicts tail inflation under contention.
func MaxUtilization(t Topology, window sim.Time) float64 {
	var max float64
	for _, l := range t.Links() {
		if u := l.Utilization(window); u > max {
			max = u
		}
	}
	return max
}

// linkSlab hands out a topology's links from one slice, recording them in
// the order they are added — the order Links() reports.
type linkSlab struct {
	links []Link
	all   []*Link
}

func newLinkSlab(n int) linkSlab {
	return linkSlab{links: make([]Link, n), all: make([]*Link, 0, n)}
}

func (s *linkSlab) add(from, to int, p LinkParams) *Link {
	l := &s.links[len(s.all)]
	*l = Link{From: int32(from), To: int32(to), p: p}
	s.all = append(s.all, l)
	return l
}

// pathError reports an out-of-range endpoint; topologies panic on it because
// it is always a wiring bug in the machine model, never a runtime condition.
func pathError(name string, src, dst, n int) string {
	return fmt.Sprintf("icn: %s endpoint out of range: src=%d dst=%d n=%d", name, src, dst, n)
}
