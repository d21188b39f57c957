package fleet

import (
	"fmt"
	"math/rand"
)

// View is the load balancer's picture of the fleet at dispatch time: the
// server count and each server's outstanding root requests (sent minus
// responded — what a real front-end tracks without seeing server queues).
type View struct {
	Servers int
	// Outstanding reports server s's roots routed by the dispatcher minus
	// those the server had answered (completed or rejected at admission)
	// by the last window barrier.
	Outstanding func(s int) int
}

// Balancer routes one arriving request to a server. Pick runs inside the
// simulation's single-threaded event loop; implementations may keep state
// (round-robin's counter) but must draw randomness only from rng — the
// engine's dedicated "fleet-lb" stream — so runs stay deterministic. With
// one server every policy must return 0 without consuming rng: a graph root
// hosted on a single server routes through such a one-server view.
type Balancer interface {
	Name() string
	Pick(rng *rand.Rand, v View) int
}

// RoundRobin cycles through servers in order — the deterministic baseline
// policy (and the default). Stateful: use a fresh value per run.
type RoundRobin struct{ next int }

// Name implements Balancer.
func (b *RoundRobin) Name() string { return "rr" }

// Pick implements Balancer.
func (b *RoundRobin) Pick(_ *rand.Rand, v View) int {
	if v.Servers <= 1 {
		return 0
	}
	s := b.next
	b.next = (b.next + 1) % v.Servers
	return s
}

// UniformRandom routes each request to a uniformly random server — the
// memoryless policy real DNS/anycast front-ends approximate, and the model
// behind the old independent-server approximation.
type UniformRandom struct{}

// Name implements Balancer.
func (UniformRandom) Name() string { return "rand" }

// Pick implements Balancer.
func (UniformRandom) Pick(rng *rand.Rand, v View) int {
	if v.Servers <= 1 {
		return 0
	}
	return rng.Intn(v.Servers)
}

// LeastOutstanding routes to the server with the fewest outstanding
// requests (join-shortest-queue on the balancer's view), breaking ties by
// lowest index so the choice is deterministic.
type LeastOutstanding struct{}

// Name implements Balancer.
func (LeastOutstanding) Name() string { return "least" }

// Pick implements Balancer.
func (LeastOutstanding) Pick(_ *rand.Rand, v View) int {
	if v.Servers <= 1 {
		return 0
	}
	best, depth := 0, v.Outstanding(0)
	for s := 1; s < v.Servers; s++ {
		if d := v.Outstanding(s); d < depth {
			best, depth = s, d
		}
	}
	return best
}

// PowerOfTwo samples two distinct servers and routes to the one with fewer
// outstanding requests — the classic power-of-two-choices policy that gets
// most of join-shortest-queue's benefit from two probes. Ties go to the
// first sample.
type PowerOfTwo struct{}

// Name implements Balancer.
func (PowerOfTwo) Name() string { return "p2c" }

// Pick implements Balancer.
func (PowerOfTwo) Pick(rng *rand.Rand, v View) int {
	if v.Servers <= 1 {
		return 0
	}
	a := rng.Intn(v.Servers)
	b := rng.Intn(v.Servers - 1)
	if b >= a {
		b++
	}
	if v.Outstanding(b) < v.Outstanding(a) {
		return b
	}
	return a
}

// Policies lists the built-in policy names in presentation order.
func Policies() []string { return []string{"rr", "rand", "least", "p2c"} }

// ParseLB maps a policy name to a balancer factory (fresh instance per run,
// so stateful policies never share state across parallel sweep workers).
// The empty string selects round-robin.
func ParseLB(name string) (func() Balancer, error) {
	switch name {
	case "", "rr", "roundrobin":
		return func() Balancer { return &RoundRobin{} }, nil
	case "rand", "random", "uniform":
		return func() Balancer { return UniformRandom{} }, nil
	case "least", "lor", "jsq":
		return func() Balancer { return LeastOutstanding{} }, nil
	case "p2c", "pow2", "two":
		return func() Balancer { return PowerOfTwo{} }, nil
	}
	return nil, fmt.Errorf("fleet: unknown load-balancer policy %q (want rr|rand|least|p2c)", name)
}
