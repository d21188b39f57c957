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
//
// All three topologies are regular, so none keeps a routing table: a
// topology holds its dimensions, one LinkParams and one slab of per-link
// contention state, zero at construction, and a route computes each link's
// slab index from the routers it joins as it walks.
package icn

import (
	"fmt"
	"math"
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

// Validate rejects timings outside [0, math.MaxInt32] ps (about 2.1 ms), so
// a link's serialization of any message of up to 2 GiB fits a sim.Time.
func (p LinkParams) Validate() error {
	if p.HopLatency < 0 || p.HopLatency > math.MaxInt32 || p.PsPerByte < 0 || p.PsPerByte > math.MaxInt32 {
		return fmt.Errorf("icn: link hop latency %d ps or ps per byte %d outside [0, %d]", p.HopLatency, p.PsPerByte, math.MaxInt32)
	}
	return nil
}

// Link is one directed channel's contention state. Its timing is the
// topology's LinkParams, so a zero Link is an idle link.
type Link struct{ sim.Resource }

// Topology routes messages between endpoint routers.
type Topology interface {
	Name() string
	// NumEndpoints is the number of addressable endpoints (leaf routers for
	// trees, all routers for meshes).
	NumEndpoints() int
	// Deliver walks a message of sizeBytes from endpoint src to endpoint
	// dst starting at now and returns its arrival time and hop count;
	// src == dst crosses no link. rng breaks ties among redundant
	// equal-cost paths. With contention off every link is an
	// infinite-capacity pipe (the Fig 7 normalization baseline).
	Deliver(now sim.Time, src, dst, sizeBytes int, rng *rand.Rand, contention bool) (sim.Time, int)
	// ToIO walks a message from endpoint src to where the package's
	// top-level NIC and memory controllers attach (storage and external
	// traffic leaves the package this way); FromIO walks one back to dst.
	ToIO(now sim.Time, src, sizeBytes int, rng *rand.Rand, contention bool) (sim.Time, int)
	FromIO(now sim.Time, dst, sizeBytes int, rng *rand.Rand, contention bool) (sim.Time, int)
	// Links exposes every link's contention state (for utilization
	// reports and resets).
	Links() []Link
	// MaxHops is the longest possible path length.
	MaxHops() int
}

// MaxUtilization returns the hottest link's utilization — the quantity that
// predicts tail inflation under contention.
func MaxUtilization(t Topology, window sim.Time) float64 {
	var max float64
	links := t.Links()
	for i := range links {
		if u := links[i].Utilization(window); u > max {
			max = u
		}
	}
	return max
}

// fabric is the state every topology shares: its link timing and the slab
// of its links' contention state, indexed by the topology's own arithmetic.
type fabric struct {
	p     LinkParams
	links []Link
}

func newFabric(p LinkParams, n int) fabric {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return fabric{p: p, links: make([]Link, n)}
}

// Links implements Topology.
func (f *fabric) Links() []Link { return f.links }

// cross moves a message whose serialization takes ser over link i, entering
// at now, and returns its head arrival time at the next router.
func (f *fabric) cross(i int, now, ser sim.Time, contention bool) sim.Time {
	if contention {
		return f.links[i].Acquire(now, ser) + f.p.HopLatency
	}
	return now + ser + f.p.HopLatency
}

// ser is the serialization time of sizeBytes at the fabric's bandwidth.
func (f *fabric) ser(sizeBytes int) sim.Time { return f.p.PsPerByte * sim.Time(sizeBytes) }

// pathError reports an out-of-range endpoint; topologies panic on it because
// it is always a wiring bug in the machine model, never a runtime condition.
func pathError(name string, src, dst, n int) string {
	return fmt.Sprintf("icn: %s endpoint out of range: src=%d dst=%d n=%d", name, src, dst, n)
}
