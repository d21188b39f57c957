package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineEventChurn measures the steady-state cost of the kernel's
// schedule/cancel/fire cycle. The allocation count is the headline: with the
// free-list recycler every scheduled node is reused, so allocs/op should be
// near zero once the pool is warm.
func BenchmarkEngineEventChurn(b *testing.B) {
	e := NewEngine(1)
	const batch = 128
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			h := e.After(Time(j+1), fn)
			if j%4 == 0 {
				e.Cancel(h)
			}
		}
		e.Run()
	}
}

// BenchmarkEngineNestedTimers measures the self-rescheduling pattern every
// machine model uses (arrival loops, timer wheels).
func BenchmarkEngineNestedTimers(b *testing.B) {
	e := NewEngine(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 256 {
				e.After(Time(n%17+1), tick)
			}
		}
		e.After(1, tick)
		e.Run()
	}
}

// BenchmarkEngineSteadyDepth measures the kernel at the depth a real run
// keeps it: about 160 events pending (the single-server SocialNetwork run's
// sim.heap.peak), each fired event scheduling its successor at a
// pseudo-random delay. One op is one event fired and replaced, so ns/op and
// allocs/op are per event.
func BenchmarkEngineSteadyDepth(b *testing.B) {
	const depth = 160
	e := NewEngine(1)
	var delays [1024]Time
	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i] = Time(1 + rng.Intn(10000))
	}
	n, stopAt := 0, 0
	var fn Event
	fn = func() {
		n++
		e.After(delays[n%len(delays)], fn)
		if n == stopAt {
			e.Stop()
		}
	}
	for i := 0; i < depth; i++ {
		e.After(delays[i], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	stopAt = n + b.N
	e.Run()
	b.StopTimer()
	if e.Pending() != depth {
		b.Fatalf("pending %d, want %d", e.Pending(), depth)
	}
}

// BenchmarkEngineNextEventAt measures the peek the fleet's PDES window loop
// makes twice per shard per window: 17 engines (16 servers and the
// dispatcher) of about 10 pending events each, peeked round-robin. One op is
// one peek; it must not allocate.
func BenchmarkEngineNextEventAt(b *testing.B) {
	const shards, depth = 17, 10
	rng := rand.New(rand.NewSource(1))
	engines := make([]*Engine, shards)
	for i := range engines {
		e := NewEngine(int64(i))
		for j := 0; j < depth; j++ {
			e.At(Time(1+rng.Intn(10000)), func() {})
		}
		at, _ := e.NextEventAt()
		e.RunUntil(at) // fire the earliest, as a window would
		engines[i] = e
	}
	var sum Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if at, ok := engines[i%shards].NextEventAt(); ok {
			sum += at
		}
	}
	b.StopTimer()
	if sum == 0 {
		b.Fatal("no pending events")
	}
}
