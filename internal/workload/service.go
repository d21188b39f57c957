// Package workload models the paper's workloads: the DeathStarBench-style
// SocialNetwork applications (service call graphs with compute segments,
// blocking storage accesses, and synchronous child RPCs), the synthetic
// single-service benchmarks of §6.7 (exponential / lognormal / bimodal
// service times with 2–6 blocking calls), the Alibaba-like production trace
// generator behind Figs 2/4/5, and the memory-footprint model behind Fig 8.
package workload

import (
	"fmt"

	"umanycore/internal/dist"
)

// OpKind distinguishes the phases of a service invocation.
type OpKind int

// Operation kinds.
const (
	// OpCompute is a CPU segment (duration in microseconds).
	OpCompute OpKind = iota
	// OpStorage is a blocking remote storage access (an RPC to storage).
	OpStorage
	// OpCall synchronously invokes child services in parallel and blocks
	// until all respond.
	OpCall
)

func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpStorage:
		return "storage"
	case OpCall:
		return "call"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one step of a service's behaviour.
type Op struct {
	Kind OpKind
	// Time is the compute duration or the storage service time, in
	// microseconds.
	Time dist.Dist
	// Callees are child service IDs invoked in parallel (OpCall only;
	// duplicates mean multiple parallel invocations of the same service).
	Callees []int
}

// Service describes one microservice.
type Service struct {
	ID   int
	Name string
	Ops  []Op
	// SnapshotBytes is the memory-pool snapshot size (§3.5: ≤16MB).
	SnapshotBytes int
}

// MeanComputeMicros returns the expected CPU microseconds of one invocation.
func (s *Service) MeanComputeMicros() float64 {
	var sum float64
	for _, op := range s.Ops {
		if op.Kind == OpCompute {
			sum += op.Time.Mean()
		}
	}
	return sum
}

// BlockingOps counts the ops that block (storage + calls).
func (s *Service) BlockingOps() int {
	n := 0
	for _, op := range s.Ops {
		if op.Kind != OpCompute {
			n++
		}
	}
	return n
}

// RPCCount counts RPC messages issued by one invocation: one per storage
// access plus one per callee.
func (s *Service) RPCCount() int {
	n := 0
	for _, op := range s.Ops {
		switch op.Kind {
		case OpStorage:
			n++
		case OpCall:
			n += len(op.Callees)
		}
	}
	return n
}

// Catalog is a closed set of services indexed by ID.
type Catalog struct {
	Services []*Service
}

// Service returns the service with the given ID.
func (c *Catalog) Service(id int) *Service {
	if id < 0 || id >= len(c.Services) {
		panic(fmt.Sprintf("workload: unknown service %d", id))
	}
	return c.Services[id]
}

// Validate checks IDs are dense, callees resolve, every service has at
// least one compute op, and the call graph is acyclic (services are a DAG
// in DeathStarBench).
func (c *Catalog) Validate() error {
	for i, s := range c.Services {
		if s.ID != i {
			return fmt.Errorf("workload: service %q has ID %d at index %d", s.Name, s.ID, i)
		}
		hasCompute := false
		for _, op := range s.Ops {
			switch op.Kind {
			case OpCompute:
				hasCompute = true
				if op.Time == nil {
					return fmt.Errorf("workload: %q has compute op without distribution", s.Name)
				}
			case OpStorage:
				if op.Time == nil {
					return fmt.Errorf("workload: %q has storage op without distribution", s.Name)
				}
			case OpCall:
				if len(op.Callees) == 0 {
					return fmt.Errorf("workload: %q has call op without callees", s.Name)
				}
				for _, callee := range op.Callees {
					if callee < 0 || callee >= len(c.Services) {
						return fmt.Errorf("workload: %q calls unknown service %d", s.Name, callee)
					}
				}
			}
		}
		if !hasCompute {
			return fmt.Errorf("workload: %q has no compute op", s.Name)
		}
	}
	// Cycle check via DFS colors.
	color := make([]int, len(c.Services)) // 0 white, 1 gray, 2 black
	var visit func(id int) error
	visit = func(id int) error {
		color[id] = 1
		for _, op := range c.Services[id].Ops {
			if op.Kind != OpCall {
				continue
			}
			for _, callee := range op.Callees {
				switch color[callee] {
				case 1:
					return fmt.Errorf("workload: call cycle through %q", c.Services[callee].Name)
				case 0:
					if err := visit(callee); err != nil {
						return err
					}
				}
			}
		}
		color[id] = 2
		return nil
	}
	for i := range c.Services {
		if color[i] == 0 {
			if err := visit(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// App is one benchmark column: a root service driven by the client, plus
// the catalog it lives in.
type App struct {
	Name    string
	Root    int
	Catalog *Catalog
}

// TreeStats summarizes the invocation tree one root request expands into.
type TreeStats struct {
	// Invocations is the total number of service invocations (tree nodes).
	Invocations int
	// TotalCPUMicros is the expected CPU time summed over the tree.
	TotalCPUMicros float64
	// CriticalPathMicros is the expected contention-free latency: compute
	// plus storage time along the longest dependency chain (parallel calls
	// take the max branch), excluding network/scheduling time.
	CriticalPathMicros float64
	// RPCs is the total RPC messages issued over the tree.
	RPCs int
}

// Stats computes TreeStats for the app's root by recursion over the DAG.
func (a *App) Stats() TreeStats {
	return a.Catalog.statsFor(a.Root)
}

func (c *Catalog) statsFor(id int) TreeStats {
	s := c.Service(id)
	out := TreeStats{Invocations: 1, RPCs: s.RPCCount()}
	for _, op := range s.Ops {
		switch op.Kind {
		case OpCompute:
			out.TotalCPUMicros += op.Time.Mean()
			out.CriticalPathMicros += op.Time.Mean()
		case OpStorage:
			out.CriticalPathMicros += op.Time.Mean()
		case OpCall:
			var maxCP float64
			for _, callee := range op.Callees {
				child := c.statsFor(callee)
				out.Invocations += child.Invocations
				out.TotalCPUMicros += child.TotalCPUMicros
				out.RPCs += child.RPCs
				if child.CriticalPathMicros > maxCP {
					maxCP = child.CriticalPathMicros
				}
			}
			out.CriticalPathMicros += maxCP
		}
	}
	return out
}
