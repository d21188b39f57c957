// Package sweep is the deterministic parallel sweep runner behind the
// figure-regeneration experiments. Every figure in the paper's evaluation is
// a grid of fully independent simulations (architecture × load × app ×
// seed); sweep fans those jobs out over a bounded worker pool and reassembles
// the results in input order, so the output of any sweep is bit-identical to
// the sequential path regardless of worker count or goroutine scheduling.
//
// The determinism contract has three legs:
//
//  1. Each job runs on its own sim.Engine (machine.Run draws one from a pool
//     and fully Resets it), so no simulator state is shared between workers.
//  2. Job seeds are derived from (baseSeed, jobKey) with Seed — a pure
//     function of the job's identity, never of scheduling order.
//  3. Map writes the i-th result into the i-th output slot and returns only
//     after every worker has finished, so result order is the input order.
package sweep

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a requested parallelism level: n > 0 is used as given,
// anything else means "all cores" (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Seed derives a per-job seed from a base seed and the job's identity key.
// It is the sweep analogue of sim.Engine.Rand's name hashing: distinct keys
// yield independent seeds, and the same (base, key) pair always yields the
// same seed, independent of worker count and execution order.
func Seed(base int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return base ^ int64(h.Sum64())
}

// busyNanos accumulates per-job wall time across all sweeps, so callers can
// estimate the aggregate sequential cost (and thus the parallel speedup)
// without re-running at one worker.
var busyNanos atomic.Int64

// ResetBusy zeroes the cumulative per-job time counter.
func ResetBusy() { busyNanos.Store(0) }

// Busy returns the cumulative wall time spent inside jobs since the last
// ResetBusy. Dividing it by the observed wall-clock time of the same span
// estimates the achieved speedup over a sequential (-parallel 1) run.
func Busy() time.Duration { return time.Duration(busyNanos.Load()) }

// jobsDone / jobsTotal track sweep progress for live serving (telemetry's
// /progress endpoint). Like busyNanos they live in the non-deterministic
// wall-clock domain and never feed back into results.
var (
	jobsDone   atomic.Int64
	jobsTotal  atomic.Int64
	jobsCached atomic.Int64
)

// Progress returns (done, total) jobs since process start. total grows as
// Map calls register work.
func Progress() (done, total int64) {
	return jobsDone.Load(), jobsTotal.Load()
}

// ProgressDetail returns (done, cached, total): done counts every finished
// job, cached the subset satisfied from the cell cache without computing.
// ETA math must weight the two separately — a cache hit costs microseconds,
// not a simulation (see telemetry's /progress handler).
func ProgressDetail() (done, cached, total int64) {
	return jobsDone.Load(), jobsCached.Load(), jobsTotal.Load()
}

// ensureTotal raises jobsTotal so a Map call's items are always counted in
// the denominator.
func ensureTotal(n int) {
	need := jobsDone.Load() + int64(n)
	for {
		t := jobsTotal.Load()
		if t >= need || jobsTotal.CompareAndSwap(t, need) {
			return
		}
	}
}

// Map runs fn over every item using at most `workers` goroutines (resolved
// via Workers) and returns the results in input order. fn must be safe to
// call concurrently for distinct items; determinism is preserved because
// each output lands in its input slot and the call is a full barrier.
//
// If fn panics on a cell, Map hands out no further cells, lets the cells
// already running finish, and then panics on the calling goroutine with a
// *CellPanic naming the cell (the lowest-indexed one, if several panicked),
// so the caller's deferred cleanup runs. The sequential path panics with
// the same value at once.
func Map[T, R any](workers int, items []T, fn func(i int, item T) R) []R {
	if len(items) == 0 {
		return nil
	}
	w := Workers(workers)
	if w > len(items) {
		w = len(items)
	}
	ensureTotal(len(items))
	out := make([]R, len(items))
	if w <= 1 {
		// Sequential fast path: identical results by construction, no
		// goroutine overhead.
		for i, item := range items {
			if p := runCell(fn, i, item, &out[i]); p != nil {
				panic(p)
			}
		}
		return out
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		first   *CellPanic
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if p := runCell(fn, i, items[i], &out[i]); p != nil {
					stopped.Store(true)
					mu.Lock()
					if first == nil || p.Index < first.Index {
						first = p
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
	return out
}

// CellPanic is the value Map panics with when fn panics on a cell.
type CellPanic struct {
	// Index is the cell's position in Map's items.
	Index int
	// Value is what fn panicked with.
	Value any
	// Stack is the panicking goroutine's stack at the panic.
	Stack []byte
}

func (p *CellPanic) Error() string {
	return fmt.Sprintf("sweep: cell %d panicked: %v\n\ncell goroutine stack:\n%s", p.Index, p.Value, p.Stack)
}

// runCell runs fn on cell i, storing its result in *out, and returns the
// panic that stopped it, if any.
func runCell[T, R any](fn func(i int, item T) R, i int, item T, out *R) (p *CellPanic) {
	defer func() {
		if v := recover(); v != nil {
			p = &CellPanic{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	start := time.Now()
	*out = fn(i, item)
	busyNanos.Add(int64(time.Since(start)))
	jobsDone.Add(1)
	return nil
}
