package machine

import (
	"fmt"
	"sort"

	"umanycore/internal/workload"
)

// Extensions beyond the paper's evaluated design:
//
//   - Service co-location (§4.1): several service instances share a village,
//     with the village's cores partitioned across them by load and each core
//     holding a Service ID register that gates its Dequeue instruction.
//   - RQ partitioning (§4.3's "more advanced design"): the hardware request
//     queue is partitioned per co-located service via the RQ_Map, removing
//     cross-service contention for RQ entries.
//   - Core stealing (§8 future work): a core whose assigned service has no
//     ready work may temporarily serve a co-located instance's requests.
//   - Heterogeneous villages (§8 future work): the first fraction of
//     villages get faster cores. Only co-located placement puts the
//     heaviest services there; plain pinned placement gives each service
//     a contiguous range of villages in service-ID order, so the big ones
//     go to whichever services come first.
//
// All are off by default and exercised by the ablation benchmarks.

// ExtensionConfig gathers the optional features.
type ExtensionConfig struct {
	// ColocatedServices is how many service instances share one village
	// under pinned placement (0 or 1 disables co-location).
	ColocatedServices int
	// PartitionRQ splits each co-located village's RQ per service in
	// proportion to its core share (requires the hardware RQ).
	PartitionRQ bool
	// CoreStealing lets an idle core serve other services hosted in its
	// village when its own has no ready work.
	CoreStealing bool
	// BigVillageFrac is the fraction of villages built from faster cores.
	BigVillageFrac float64
	// BigCorePerf multiplies PerfFactor in big villages (e.g. 1.65).
	BigCorePerf float64
}

// Validate checks extension consistency against the base config.
func (e ExtensionConfig) Validate(c *Config) error {
	if e.ColocatedServices < 0 {
		return fmt.Errorf("machine: negative co-location factor")
	}
	if e.ColocatedServices > 1 && c.Placement != PinnedPlacement {
		return fmt.Errorf("machine: co-location requires pinned placement")
	}
	if e.PartitionRQ && !c.Policy.HardwareRQ {
		return fmt.Errorf("machine: RQ partitioning requires the hardware RQ")
	}
	if e.PartitionRQ && e.ColocatedServices <= 1 {
		return fmt.Errorf("machine: RQ partitioning only applies to co-located villages")
	}
	if !(e.BigVillageFrac >= 0 && e.BigVillageFrac <= 1) {
		return fmt.Errorf("machine: big-village fraction out of range")
	}
	if e.BigVillageFrac > 0 && !(e.BigCorePerf > 0) {
		return fmt.Errorf("machine: big villages need a positive perf multiplier")
	}
	return nil
}

// placeColocated assigns the weighted services to domains with
// e.ColocatedServices instances per village, partitions cores by load
// share, and optionally partitions the RQ the same way. Heavy services land
// in big villages first when heterogeneity is enabled.
func (m *Machine) placeColocated(weights map[int]float64) {
	e := m.cfg.Extensions
	type svcWeight struct {
		svc int
		w   float64
	}
	var order []svcWeight
	for svc, w := range weights {
		order = append(order, svcWeight{svc, w})
	}
	// Heaviest services first: they get the big villages (if any) and the
	// largest core shares.
	sort.Slice(order, func(i, j int) bool {
		if order[i].w != order[j].w {
			return order[i].w > order[j].w
		}
		return order[i].svc < order[j].svc
	})

	group := e.ColocatedServices
	if group > len(order) {
		group = len(order)
	}
	di := 0
	for di < len(m.domains) {
		dom := m.domains[di]
		// Pick the group of services for this village, cycling through the
		// weighted order so every service keeps getting instances.
		members := make([]svcWeight, 0, group)
		for g := 0; g < group; g++ {
			members = append(members, order[(di*group+g)%len(order)])
		}
		var total float64
		for _, mbr := range members {
			total += mbr.w
		}
		// Partition cores proportionally, at least one per member.
		slab := m.domainCores(dom)
		cores := len(slab)
		next := 0
		partition := make(map[int]int, len(members))
		for gi, mbr := range members {
			share := int(float64(cores) * mbr.w / total)
			if share < 1 {
				share = 1
			}
			if gi == len(members)-1 {
				share = cores - next
			}
			if next+share > cores {
				share = cores - next
			}
			for k := 0; k < share; k++ {
				slab[next].svcID = int32(mbr.svc)
				next++
			}
			m.instances[mbr.svc] = append(m.instances[mbr.svc], dom)
			partition[mbr.svc] = share
		}
		for ; next < cores; next++ {
			slab[next].svcID = int32(members[0].svc)
		}
		if e.PartitionRQ && dom.hwq != nil {
			// RQ entries proportional to core shares.
			rqPart := make(map[int]int, len(partition))
			total := 0
			for svc, share := range partition {
				n := m.cfg.RQCapacity * share / cores
				if n < 1 {
					n = 1
				}
				rqPart[svc] = n
				total += n
			}
			for svc := range rqPart {
				if total <= m.cfg.RQCapacity {
					break
				}
				if rqPart[svc] > 1 {
					rqPart[svc]--
					total--
				}
			}
			dom.hwq.SetPartition(rqPart)
		}
		di++
	}
}

// serviceWeights returns the expected invocations per arriving request for
// every service in the mix's trees.
func serviceWeights(catalog *workload.Catalog, mix []workload.MixEntry) map[int]float64 {
	weights := make(map[int]float64)
	var walk func(id int, mult float64)
	walk = func(id int, mult float64) {
		weights[id] += mult
		for _, op := range catalog.Service(id).Ops {
			if op.Kind != workload.OpCall {
				continue
			}
			for _, callee := range op.Callees {
				walk(callee, mult)
			}
		}
	}
	for _, e := range mix {
		walk(e.Root, e.Weight)
	}
	return weights
}

// applyHeterogeneity marks the first BigVillageFrac of domains as big-core
// villages, whose compute-speed divisor is PerfFactor × BigCorePerf.
// placeColocated allocates heavy services from domain 0 upward, so under
// co-location the heaviest land on big cores; place allocates in
// service-ID order, whatever the services' weights.
func (m *Machine) applyHeterogeneity() {
	e := m.cfg.Extensions
	if e.BigVillageFrac <= 0 {
		return
	}
	n := int(float64(len(m.domains)) * e.BigVillageFrac)
	m.perf = make([]float64, len(m.domains))
	for i := range m.perf {
		m.perf[i] = m.cfg.PerfFactor
		if i < n && e.BigCorePerf > 0 {
			m.perf[i] = m.cfg.PerfFactor * e.BigCorePerf
		}
	}
}
