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
	"hash/fnv"
	"runtime"
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
			start := time.Now()
			out[i] = fn(i, item)
			busyNanos.Add(int64(time.Since(start)))
			jobsDone.Add(1)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				start := time.Now()
				out[i] = fn(i, items[i])
				busyNanos.Add(int64(time.Since(start)))
				jobsDone.Add(1)
			}
		}()
	}
	wg.Wait()
	return out
}

// Map2 runs fn over the cross product rows × cols (row-major order) and
// returns a [len(rows)][len(cols)] result grid — the common shape of the
// paper's architecture × load sweeps.
func Map2[A, B, R any](workers int, rows []A, cols []B, fn func(a A, b B) R) [][]R {
	type cell struct {
		a A
		b B
	}
	jobs := make([]cell, 0, len(rows)*len(cols))
	for _, a := range rows {
		for _, b := range cols {
			jobs = append(jobs, cell{a, b})
		}
	}
	flat := Map(workers, jobs, func(_ int, c cell) R { return fn(c.a, c.b) })
	out := make([][]R, len(rows))
	for i := range rows {
		out[i] = flat[i*len(cols) : (i+1)*len(cols)]
	}
	return out
}
