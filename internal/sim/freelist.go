package sim

import "sync"

// FreeList keeps values, such as engines, for reuse from one run to the
// next. Unlike a sync.Pool it never drops a value: the last value put back
// is the next one taken, so whether a run reuses storage or allocates it
// does not depend on garbage-collection timing, or on the race detector,
// which makes a sync.Pool drop values at random. Allocation counts of
// repeated runs are therefore exact. The cost is that the list holds as
// many values as were ever in use at once. It is safe for concurrent use.
type FreeList[T any] struct {
	// New makes a value when the list is empty.
	New  func() T
	mu   sync.Mutex
	free []T
}

// Get takes the most recently returned value, or makes one with New.
func (l *FreeList[T]) Get() T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return l.New()
	}
	v := l.free[n-1]
	var zero T
	l.free[n-1] = zero
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return v
}

// Put returns v for a later Get.
func (l *FreeList[T]) Put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
