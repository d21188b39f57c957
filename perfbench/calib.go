package main

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// calibrationEvents sizes the calibration kernel: about 40 ms on a 2 GHz
// Xeon.
const calibrationEvents = 100000

// calibrate times a fixed kernel that does the kinds of work the simulator
// does (a pointer event heap, small allocations, map updates, float math)
// without calling any of its code, on as many goroutines as the job keeps
// busy, and returns the host seconds until all finish. Timed next to each
// pass, it measures how fast the host runs at that moment: on a shared
// host, neighbours slow both by about the same factor, so the ratio of the
// two is steadier than either. The kernel is part of the benchmark, so no
// change to the program moves it.
func calibrate(threads int) float64 {
	runtime.GC()
	t := time.Now()
	var wg sync.WaitGroup
	sums := make([]float64, threads)
	wg.Add(threads)
	for i := range sums {
		go func() {
			defer wg.Done()
			sums[i] = calibrationKernel()
		}()
	}
	wg.Wait()
	calSink = sums[0]
	return time.Since(t).Seconds()
}

func calibrationKernel() float64 {
	rng := rand.New(rand.NewSource(1))
	h := &calHeap{}
	for i := 0; i < 512; i++ {
		heap.Push(h, &calEvent{at: rng.ExpFloat64()})
	}
	counts := map[int]int{}
	var sum float64
	for i := 0; i < calibrationEvents; i++ {
		e := heap.Pop(h).(*calEvent)
		counts[int(e.at*1000)%8192]++
		sum += math.Log1p(e.at)
		heap.Push(h, &calEvent{at: e.at + rng.ExpFloat64()})
	}
	return sum + float64(len(counts))
}

// calSink keeps the kernel's result live so the compiler cannot drop the
// work.
var calSink float64

type calEvent struct {
	at      float64
	payload [4]int64
}

type calHeap []*calEvent

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
