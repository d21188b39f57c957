package sweep

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if Workers(4) != 4 {
		t.Fatal("explicit worker count ignored")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("non-positive should mean all cores")
	}
}

func TestSeedDeterministicAndDistinct(t *testing.T) {
	if Seed(42, "e2e/uManycore/15000") != Seed(42, "e2e/uManycore/15000") {
		t.Fatal("same (base, key) produced different seeds")
	}
	seen := map[int64]string{}
	for _, k := range []string{"a", "b", "e2e/uManycore/5000", "e2e/uManycore/15000", ""} {
		s := Seed(42, k)
		if prev, dup := seen[s]; dup {
			t.Fatalf("keys %q and %q collide", prev, k)
		}
		seen[s] = k
	}
	if Seed(1, "x") == Seed(2, "x") {
		t.Fatal("base seed ignored")
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	sq := func(_ int, x int) int { return x * x }
	seq := Map(1, items, sq)
	for _, w := range []int{2, 3, 8, 100, 0} {
		par := Map(w, items, sq)
		if len(par) != len(seq) {
			t.Fatalf("w=%d: length %d", w, len(par))
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("w=%d: result[%d] = %d, want %d", w, i, par[i], seq[i])
			}
		}
	}
}

func TestMapRunsEveryItemOnce(t *testing.T) {
	var calls atomic.Int64
	n := 1000
	items := make([]struct{}, n)
	Map(16, items, func(i int, _ struct{}) int {
		calls.Add(1)
		return i
	})
	if calls.Load() != int64(n) {
		t.Fatalf("fn called %d times, want %d", calls.Load(), n)
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(8, nil, func(int, int) int { return 0 }); got != nil {
		t.Fatalf("empty map = %v", got)
	}
}

func TestBusyAccumulates(t *testing.T) {
	ResetBusy()
	Map(4, make([]struct{}, 64), func(i int, _ struct{}) int {
		s := 0
		for j := 0; j < 10000; j++ {
			s += j
		}
		return s
	})
	if Busy() <= 0 {
		t.Fatal("Busy did not accumulate job time")
	}
}

// mapPanic runs Map and returns the value it panicked with, or nil.
func mapPanic(workers int, items []int, fn func(int, int) int) (v any) {
	defer func() { v = recover() }()
	Map(workers, items, fn)
	return nil
}

// A panicking cell surfaces on the calling goroutine as a *CellPanic that
// names the cell and carries the original value, with the same message on
// the sequential and the parallel path. No cell starts once the panic is
// seen, every cell already running finishes, and the caller's deferred
// cleanup runs.
func TestMapPanicNamesCell(t *testing.T) {
	// Enough 2 ms cells that the panicking worker would have to stall for
	// seconds before its sibling could run them all.
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2} {
		var started, finished atomic.Int64
		fn := func(i, x int) int {
			started.Add(1)
			if x == 0 {
				panic("boom")
			}
			time.Sleep(2 * time.Millisecond)
			finished.Add(1)
			return x
		}
		cleaned := false
		v := func() any {
			defer func() { cleaned = true }()
			return mapPanic(workers, items, fn)
		}()
		p, ok := v.(*CellPanic)
		if !ok {
			t.Fatalf("workers %d: Map panicked with %T %v, want *CellPanic", workers, v, v)
		}
		if p.Index != 0 || p.Value != "boom" {
			t.Fatalf("workers %d: panic names cell %d with %v, want cell 0 with boom", workers, p.Index, p.Value)
		}
		if first, _, _ := strings.Cut(p.Error(), "\n"); first != "sweep: cell 0 panicked: boom" {
			t.Fatalf("workers %d: message %q", workers, first)
		}
		if !cleaned {
			t.Fatalf("workers %d: caller's deferred cleanup did not run", workers)
		}
		if started.Load() == int64(len(items)) {
			t.Fatalf("workers %d: every cell ran after the panic", workers)
		}
		if finished.Load() != started.Load()-1 {
			t.Fatalf("workers %d: %d cells started, %d finished besides the panicking one", workers, started.Load(), finished.Load())
		}
	}
}
