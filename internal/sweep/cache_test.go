package sweep

import (
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

// memCache is an in-memory CellCache for exercising MapCached's control flow
// without the on-disk implementation.
type memCache struct {
	mu                    sync.Mutex
	m                     map[string][]byte
	verify                bool
	hits, misses, invalid int
	mismatches            int
}

func newMemCache() *memCache { return &memCache{m: map[string][]byte{}} }

func (c *memCache) Lookup(pre []byte, valid func([]byte) bool) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[string(pre)]
	switch {
	case !ok:
		c.misses++
	case !valid(b):
		c.invalid++
		c.misses++
		return nil, false
	default:
		c.hits++
	}
	return b, ok
}

// peek reads a stored payload without counting.
func (c *memCache) peek(pre []byte) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return string(c.m[string(pre)])
}

func (c *memCache) Store(pre, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[string(pre)] = append([]byte(nil), payload...)
}

func (c *memCache) VerifyMode() bool { return c.verify }

func (c *memCache) RecordMismatch(pre, cached, recomputed []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mismatches++
}

// withCache installs c for the duration of the test and restores the
// disabled state after.
func withCache(t *testing.T, c CellCache) {
	t.Helper()
	SetCache(c)
	t.Cleanup(func() { SetCache(nil) })
}

// squareCell is the plain test cell: keyed by its value, it computes the
// value's square.
type squareCell int

func (c squareCell) Key() []byte { return []byte("cell/" + strconv.Itoa(int(c))) }
func (c squareCell) Run() int    { return int(c) * int(c) }

func squares(vs ...int) []squareCell {
	cells := make([]squareCell, len(vs))
	for i, v := range vs {
		cells[i] = squareCell(v)
	}
	return cells
}

// fnCell is a test cell whose key and run are closures, for cases that
// count, forbid or vary either call.
type fnCell[R any] struct {
	key func() []byte
	run func() R
}

func (c fnCell[R]) Key() []byte { return c.key() }
func (c fnCell[R]) Run() R      { return c.run() }

func TestMapCachedColdWarm(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	cells := squares(1, 2, 3, 4)
	cold := MapCached(2, cells)
	if want := []int{1, 4, 9, 16}; !reflect.DeepEqual(cold, want) {
		t.Fatalf("cold = %v, want %v", cold, want)
	}
	if c.hits != 0 || c.misses != 4 {
		t.Fatalf("cold counters: hits=%d misses=%d", c.hits, c.misses)
	}
	// Warm: no cell may run at all.
	warmCells := make([]fnCell[int], len(cells))
	for i, sc := range cells {
		warmCells[i] = fnCell[int]{key: sc.Key, run: func() int {
			t.Errorf("cell %d recomputed on warm run", sc)
			return 0
		}}
	}
	warm := MapCached(2, warmCells)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm = %v, want %v", warm, cold)
	}
	if c.hits != 4 {
		t.Fatalf("warm hits = %d, want 4", c.hits)
	}
	if _, cached, _ := ProgressDetail(); cached < 4 {
		t.Fatalf("jobsCached = %d, want >= 4", cached)
	}
}

// TestMapCachedNoCacheIsMap: with no cache installed MapCached is Map over
// Run, and never builds a key.
func TestMapCachedNoCacheIsMap(t *testing.T) {
	SetCache(nil)
	cells := make([]fnCell[int], 0, 2)
	for _, v := range []int{2, 3} {
		cells = append(cells, fnCell[int]{
			key: func() []byte {
				t.Errorf("cell %d built its key with no cache installed", v)
				return squareCell(v).Key()
			},
			run: squareCell(v).Run,
		})
	}
	got := MapCached(2, cells)
	if want := []int{4, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMapCachedNilPreimageComputes(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	ran := 0
	cell := fnCell[int]{key: func() []byte { return nil }, run: func() int { ran++; return 5 }}
	for range []int{0, 1} { // both passes must compute: nothing is cacheable
		if got := MapCached(1, []fnCell[int]{cell}); got[0] != 5 {
			t.Fatalf("got %v", got)
		}
	}
	if ran != 2 {
		t.Fatalf("cell ran %d times, want 2 (nil preimage must never cache)", ran)
	}
	if len(c.m) != 0 {
		t.Fatal("nil-preimage cell was stored")
	}
}

// TestMapCachedEncodeErrorComputesUncached: a result with no JSON form (a
// non-finite float) is computed and returned but never stored.
func TestMapCachedEncodeErrorComputesUncached(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	cells := make([]fnCell[float64], len(vals))
	for i, v := range vals {
		cells[i] = fnCell[float64]{
			key: func() []byte { return []byte("cell/" + strconv.Itoa(i)) },
			run: func() float64 { return v },
		}
	}
	got := MapCached(1, cells)
	for i, v := range vals {
		if got[i] != v && !(math.IsNaN(got[i]) && math.IsNaN(v)) {
			t.Fatalf("cell %d = %v, want %v", i, got[i], v)
		}
	}
	if len(c.m) != 0 {
		t.Fatalf("non-finite cells were stored: %v", c.m)
	}
}

// TestMapCachedUndecodablePayloadRecomputes: a stored payload that does not
// decode, or decodes to a value that re-encodes to different bytes, is an
// invalidation — never a hit — and the recomputed cell overwrites it.
func TestMapCachedUndecodablePayloadRecomputes(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	c.Store(squareCell(3).Key(), []byte("not a number"))
	c.Store(squareCell(4).Key(), []byte(" 16")) // decodes to 16, re-encodes as "16"
	got := MapCached(1, squares(3, 4))
	if want := []int{9, 16}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want recomputed %v", got, want)
	}
	if c.invalid != 2 || c.hits != 0 {
		t.Fatalf("invalid = %d, hits = %d; want 2, 0", c.invalid, c.hits)
	}
	if b := c.peek(squareCell(3).Key()); b != "9" {
		t.Fatalf("corrupt entry not repaired: %q", b)
	}

	// An object whose fields are all missing decodes to the zero value but
	// re-encodes with every field present: invalid, not a zero result.
	type result struct{ N, M int }
	structKey := []byte("struct/0")
	c.Store(structKey, []byte("{}"))
	res := MapCached(1, []fnCell[*result]{{
		key: func() []byte { return structKey },
		run: func() *result { return &result{5, 25} },
	}})
	if *res[0] != (result{5, 25}) || c.invalid != 3 {
		t.Fatalf("got %+v with %d invalid; want recomputed {5 25} and 3 invalid", *res[0], c.invalid)
	}
	if b := c.peek(structKey); b != `{"N":5,"M":25}` {
		t.Fatalf("entry not repaired: %q", b)
	}
}

func TestMapCachedVerifyDetectsMismatch(t *testing.T) {
	c := newMemCache()
	c.verify = true
	withCache(t, c)
	c.Store(squareCell(3).Key(), []byte("8")) // lies: 3^2 is 9
	c.Store(squareCell(4).Key(), []byte("16"))
	got := MapCached(1, squares(3, 4))
	if want := []int{9, 16}; !reflect.DeepEqual(got, want) {
		t.Fatalf("verify must return recomputed truth, got %v", got)
	}
	if c.mismatches != 1 {
		t.Fatalf("mismatches = %d, want 1", c.mismatches)
	}
	if b := c.peek(squareCell(3).Key()); b != "9" {
		t.Fatalf("lying entry not converged to truth: %q", b)
	}
}
