package sim

import (
	"math"
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

// BenchmarkEngineServerMix measures the kernel on the traffic shape of the
// single-server SocialNetwork run: about 65 events pending, 24% of
// follow-ups 33-65 ns ahead (the context-save completion), the rest spread
// log-uniformly over 1-270 us, and about 31% of callbacks scheduling
// nothing, so the hold is released to the last entry. A callback that does
// schedule adds a second follow-up while fewer than 65 events are pending,
// which holds the depth steady. One op is one event fired.
func BenchmarkEngineServerMix(b *testing.B) {
	const depth = 65
	e := NewEngine(1)
	var delays [4096]Time
	var idle [4096]bool
	rng := rand.New(rand.NewSource(1))
	lo, hi := math.Log(float64(Microsecond)), math.Log(float64(270*Microsecond))
	for i := range delays {
		if rng.Float64() < 0.24 {
			delays[i] = 33*Nanosecond + Time(rng.Int63n(int64(32*Nanosecond)))
		} else {
			delays[i] = Time(math.Exp(lo + (hi-lo)*rng.Float64()))
		}
		idle[i] = rng.Float64() < 0.31
	}
	n, d, stopAt := 0, 0, 0
	var fn Event
	fn = func() {
		n++
		if n == stopAt {
			e.Stop()
		}
		if idle[n%len(idle)] {
			return
		}
		e.After(delays[d%len(delays)], fn)
		d++
		if e.Pending() < depth {
			e.After(delays[d%len(delays)], fn)
			d++
		}
	}
	for i := 0; i < depth; i++ {
		e.After(delays[i], fn)
	}
	d = depth
	for i := 0; i < 100*depth; i++ { // warm up to the steady mix
		e.RunUntil(e.Now() + Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	stopAt = n + b.N
	e.Run()
	b.StopTimer()
	if p := e.Pending(); p < depth/2 || p > 2*depth {
		b.Fatalf("pending %d, want about %d", p, depth)
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
