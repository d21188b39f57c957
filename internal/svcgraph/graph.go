// Package svcgraph lifts service-graph workloads from a single-machine
// concept to a fleet-wide one. A workload.Catalog already describes a
// microservice DAG — named services whose OpCall stages fan out to callees
// in parallel between serial compute/storage stages — but the fleet path
// treated every server as a replica of the whole application. This package
// adds the two missing pieces the paper's subjects (DeathStarBench
// SocialNetwork, Alibaba production traces) require:
//
//   - A placement Spec assigning each service of the catalog to a subset of
//     the fleet's servers, so a cross-edge RPC between services hosted on
//     different servers becomes a real cross-server call through the PDES
//     coupling fabric instead of a RemoteCallFrac lottery, and the
//     dispatcher's balancer routes each root over the servers actually
//     hosting its root service.
//
//   - An external trace format (see ParseTrace) with open-loop replay:
//     recorded arrivals, per-record root services, and per-record service
//     demands drive any simulated architecture, replayed verbatim or
//     rescaled to a target RPS. `umtrace -csv` emits the same wire format,
//     closing the loop umtrace -csv > t.csv && umprof -trace t.csv.
//
// Everything here is plain data: Specs and Replays are canonically
// encodable by sweepcache.Key.Any, so graph and trace cells cache content-
// addressed like every other sweep cell.
package svcgraph

import (
	"fmt"
	"math/rand"
	"sort"

	"umanycore/internal/dist"
	"umanycore/internal/workload"
)

// Spec places an application's service graph across a fleet. The graph
// itself lives in the workload.Catalog (OpCall edges); the Spec only decides
// which servers host which services.
type Spec struct {
	// Placement[svc] lists the servers hosting service svc, strictly
	// ascending. Every service of the catalog must be hosted somewhere, and
	// every server must host at least one service (an unhosted server would
	// idle; a machine with no local services cannot even allocate domains).
	Placement [][]int
}

// Validate checks the placement against a catalog and fleet size. It also
// validates the catalog itself, so a graph-mode fleet surfaces call cycles,
// dangling callee IDs, and services with no compute stage with the same
// errors the single-machine path reports.
func (sp *Spec) Validate(catalog *workload.Catalog, servers int) error {
	if err := catalog.Validate(); err != nil {
		return err
	}
	if servers <= 0 {
		return fmt.Errorf("svcgraph: placement needs servers > 0, got %d", servers)
	}
	if len(sp.Placement) != len(catalog.Services) {
		return fmt.Errorf("svcgraph: placement covers %d services, catalog has %d",
			len(sp.Placement), len(catalog.Services))
	}
	hosted := make([]bool, servers)
	for svc, hosts := range sp.Placement {
		name := catalog.Services[svc].Name
		if len(hosts) == 0 {
			return fmt.Errorf("svcgraph: service %q (id %d) is placed on no server", name, svc)
		}
		prev := -1
		for _, h := range hosts {
			if h < 0 || h >= servers {
				return fmt.Errorf("svcgraph: service %q placed on server %d, fleet has %d servers", name, h, servers)
			}
			if h <= prev {
				return fmt.Errorf("svcgraph: service %q host list must be strictly ascending, got %v", name, hosts)
			}
			prev = h
			hosted[h] = true
		}
	}
	for s, ok := range hosted {
		if !ok {
			return fmt.Errorf("svcgraph: server %d hosts no service", s)
		}
	}
	return nil
}

// HostedOn returns the services placed on one server, ascending.
func (sp *Spec) HostedOn(server int) []int {
	var svcs []int
	for svc, hosts := range sp.Placement {
		for _, h := range hosts {
			if h == server {
				svcs = append(svcs, svc)
				break
			}
		}
	}
	return svcs
}

// Hosts returns the servers hosting one service (the Placement row).
func (sp *Spec) Hosts(svc int) []int { return sp.Placement[svc] }

// Colocated places every service on every server — each server runs the
// full application, the graph-mode equivalent of the replicated fleet.
func Colocated(services, servers int) *Spec {
	p := make([][]int, services)
	for s := range p {
		hosts := make([]int, servers)
		for h := range hosts {
			hosts[h] = h
		}
		p[s] = hosts
	}
	return &Spec{Placement: p}
}

// Spread stripes services across servers round-robin, one host per service —
// maximum disaggregation, every cross-service edge (almost) always a
// cross-server RPC. Requires services >= servers so no server idles.
func Spread(services, servers int) *Spec {
	p := make([][]int, services)
	for s := range p {
		p[s] = []int{s % servers}
	}
	return &Spec{Placement: p}
}

// Random places each service on a uniform sample of `replicas` distinct
// servers (clamped to [1, servers]), deterministically from seed, then
// assigns any still-empty server one extra service so the placement
// validates. Same seed, same placement — safe inside cached sweep cells.
func Random(services, servers, replicas int, seed int64) *Spec {
	if replicas < 1 {
		replicas = 1
	}
	if replicas > servers {
		replicas = servers
	}
	r := rand.New(rand.NewSource(seed))
	p := make([][]int, services)
	perm := make([]int, servers)
	hosted := make([]bool, servers)
	for s := range p {
		for i := range perm {
			perm[i] = i
		}
		// Partial Fisher-Yates: the first `replicas` slots end up a uniform
		// sample without replacement.
		for i := 0; i < replicas; i++ {
			j := i + r.Intn(servers-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		hosts := append([]int(nil), perm[:replicas]...)
		sort.Ints(hosts)
		p[s] = hosts
		for _, h := range hosts {
			hosted[h] = true
		}
	}
	for h := range hosted {
		if hosted[h] {
			continue
		}
		svc := r.Intn(services)
		p[svc] = append(p[svc], h)
		sort.Ints(p[svc])
		hosted[h] = true
	}
	return &Spec{Placement: p}
}

// Layered builds a layered service DAG for placement studies: `levels` tiers
// of distinct services rooted at ID 0, each non-leaf running compute → one
// parallel OpCall fan-out to its `fanout` children → compute, and each leaf
// running compute → storage → compute. meanComputeMicros sets the first
// compute stage's mean; trailing stages run at half that. Panics on
// non-positive shape parameters or graphs above 4096 services.
func Layered(levels, fanout int, meanComputeMicros float64) *workload.App {
	if levels < 1 || fanout < 1 || meanComputeMicros <= 0 {
		panic(fmt.Sprintf("svcgraph: bad layered shape levels=%d fanout=%d mean=%g", levels, fanout, meanComputeMicros))
	}
	// starts[l] is the first service ID of tier l; tier l has fanout^l nodes.
	starts := make([]int, levels+1)
	width := 1
	for l := 0; l < levels; l++ {
		starts[l+1] = starts[l] + width
		width *= fanout
		if starts[l+1] > 4096 {
			panic(fmt.Sprintf("svcgraph: layered graph levels=%d fanout=%d exceeds 4096 services", levels, fanout))
		}
	}
	total := starts[levels]
	svcs := make([]*workload.Service, total)
	for l := 0; l < levels; l++ {
		for i := starts[l]; i < starts[l+1]; i++ {
			s := &workload.Service{
				ID:            i,
				Name:          fmt.Sprintf("L%dN%d", l, i-starts[l]),
				SnapshotBytes: 8 << 20,
			}
			if l == levels-1 {
				s.Ops = []workload.Op{
					{Kind: workload.OpCompute, Time: dist.NewLognormal(meanComputeMicros, 0.4)},
					{Kind: workload.OpStorage, Time: dist.Exponential{MeanV: meanComputeMicros / 2}},
					{Kind: workload.OpCompute, Time: dist.NewLognormal(meanComputeMicros/2, 0.4)},
				}
			} else {
				first := starts[l+1] + (i-starts[l])*fanout
				callees := make([]int, fanout)
				for k := range callees {
					callees[k] = first + k
				}
				s.Ops = []workload.Op{
					{Kind: workload.OpCompute, Time: dist.NewLognormal(meanComputeMicros, 0.4)},
					{Kind: workload.OpCall, Callees: callees},
					{Kind: workload.OpCompute, Time: dist.NewLognormal(meanComputeMicros/2, 0.4)},
				}
			}
			svcs[i] = s
		}
	}
	return &workload.App{
		Name:    fmt.Sprintf("Graph-L%dF%d", levels, fanout),
		Root:    0,
		Catalog: &workload.Catalog{Services: svcs},
	}
}
