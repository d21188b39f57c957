package sim

import (
	"sync"
	"testing"
)

// TestFreeListReuses: a FreeList hands back the last value put, makes one
// with New only when empty, and never drops a value, also when goroutines
// share it: after concurrent users each take and return one value, the list
// holds exactly the values New made.
func TestFreeListReuses(t *testing.T) {
	made := 0
	l := FreeList[*int]{New: func() *int { made++; v := made; return &v }}
	a := l.Get()
	l.Put(a)
	if b := l.Get(); b != a || made != 1 {
		t.Fatalf("Get after Put returned %p (put %p), New ran %d times", b, a, made)
	}
	if c := l.Get(); c == a || made != 2 {
		t.Fatalf("Get on an empty list did not make a value (New ran %d times)", made)
	}

	var mu sync.Mutex
	shared := FreeList[*int]{New: func() *int { mu.Lock(); made++; mu.Unlock(); return new(int) }}
	made = 0
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				v := shared.Get()
				*v++
				shared.Put(v)
			}
		}()
	}
	wg.Wait()
	total := 0
	for range made {
		total += *shared.Get()
	}
	if total != 800 || len(shared.free) != 0 {
		t.Fatalf("values made %d hold %d increments of 800, %d left over", made, total, len(shared.free))
	}
}
