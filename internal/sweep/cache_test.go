package sweep

import (
	"fmt"
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

func intPre(i int, v int) []byte { return []byte("cell/" + strconv.Itoa(v)) }

func square(i int, v int) int { return v * v }

func TestMapCachedColdWarm(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	items := []int{1, 2, 3, 4}
	cold := MapCached(2, items, intPre, square)
	if want := []int{1, 4, 9, 16}; !reflect.DeepEqual(cold, want) {
		t.Fatalf("cold = %v, want %v", cold, want)
	}
	if c.hits != 0 || c.misses != 4 {
		t.Fatalf("cold counters: hits=%d misses=%d", c.hits, c.misses)
	}
	// Warm: fn must not run at all.
	warm := MapCached(2, items, intPre, func(i, v int) int {
		t.Errorf("cell %d recomputed on warm run", v)
		return 0
	})
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

func TestMapCachedNoCacheIsMap(t *testing.T) {
	SetCache(nil)
	got := MapCached(2, []int{2, 3}, intPre, square)
	if want := []int{4, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMapCachedNilPreimageComputes(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	ran := 0
	for range []int{0, 1} { // both passes must compute: nothing is cacheable
		got := MapCached(1, []int{5}, func(i, v int) []byte { return nil },
			func(i, v int) int { ran++; return v })
		if got[0] != 5 {
			t.Fatalf("got %v", got)
		}
	}
	if ran != 2 {
		t.Fatalf("fn ran %d times, want 2 (nil preimage must never cache)", ran)
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
	pre := func(i int, _ float64) []byte { return []byte("cell/" + strconv.Itoa(i)) }
	got := MapCached(1, vals, pre, func(_ int, v float64) float64 { return v })
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
	c.Store(intPre(0, 3), []byte("not a number"))
	c.Store(intPre(0, 4), []byte(" 16")) // decodes to 16, re-encodes as "16"
	got := MapCached(1, []int{3, 4}, intPre, square)
	if want := []int{9, 16}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want recomputed %v", got, want)
	}
	if c.invalid != 2 || c.hits != 0 {
		t.Fatalf("invalid = %d, hits = %d; want 2, 0", c.invalid, c.hits)
	}
	if b := c.peek(intPre(0, 3)); b != "9" {
		t.Fatalf("corrupt entry not repaired: %q", b)
	}

	// An object whose fields are all missing decodes to the zero value but
	// re-encodes with every field present: invalid, not a zero result.
	type result struct{ N, M int }
	structPre := func(int, int) []byte { return []byte("struct/0") }
	c.Store(structPre(0, 0), []byte("{}"))
	res := MapCached(1, []int{5}, structPre, func(_, v int) *result { return &result{v, v * v} })
	if *res[0] != (result{5, 25}) || c.invalid != 3 {
		t.Fatalf("got %+v with %d invalid; want recomputed {5 25} and 3 invalid", *res[0], c.invalid)
	}
	if b := c.peek(structPre(0, 0)); b != `{"N":5,"M":25}` {
		t.Fatalf("entry not repaired: %q", b)
	}
}

func TestMapCachedVerifyDetectsMismatch(t *testing.T) {
	c := newMemCache()
	c.verify = true
	withCache(t, c)
	c.Store(intPre(0, 3), []byte("8")) // lies: 3^2 is 9
	c.Store(intPre(0, 4), []byte("16"))
	got := MapCached(1, []int{3, 4}, intPre, square)
	if want := []int{9, 16}; !reflect.DeepEqual(got, want) {
		t.Fatalf("verify must return recomputed truth, got %v", got)
	}
	if c.mismatches != 1 {
		t.Fatalf("mismatches = %d, want 1", c.mismatches)
	}
	if b := c.peek(intPre(0, 3)); b != "9" {
		t.Fatalf("lying entry not converged to truth: %q", b)
	}
}

func TestMapCached2Layout(t *testing.T) {
	c := newMemCache()
	withCache(t, c)
	rows, cols := []int{1, 2}, []int{10, 20, 30}
	pre := func(a, b int) []byte { return []byte(fmt.Sprintf("c/%d/%d", a, b)) }
	fn := func(a, b int) int { return a * b }
	cold := MapCached2(2, rows, cols, pre, fn)
	want := [][]int{{10, 20, 30}, {20, 40, 60}}
	if !reflect.DeepEqual(cold, want) {
		t.Fatalf("cold = %v, want %v", cold, want)
	}
	warm := MapCached2(3, rows, cols, pre, func(a, b int) int {
		t.Errorf("cell (%d,%d) recomputed on warm run", a, b)
		return 0
	})
	if !reflect.DeepEqual(warm, want) {
		t.Fatalf("warm = %v, want %v", warm, want)
	}
}
