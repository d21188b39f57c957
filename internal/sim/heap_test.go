package sim

import (
	"math/rand"
	"testing"
)

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at    Time
	seq   uint64
	label int
}

// refEngine is the executable specification the heap is checked against: an
// unsorted slice scanned for the (at, seq) minimum on every pop.
type refEngine struct {
	now        Time
	seq        uint64
	pending    []refEvent
	maxPending int
	next       int // label of the next follow-up event
}

func (r *refEngine) add(at Time, label int) {
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, label: label})
	r.seq++
	if len(r.pending) > r.maxPending {
		r.maxPending = len(r.pending)
	}
}

func (r *refEngine) cancel(label int) bool {
	for i, ev := range r.pending {
		if ev.label == label {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return true
		}
	}
	return false
}

// spawns reports whether the event labelled label schedules one follow-up
// when it fires, and after what delay. Explicitly scheduled events carry
// negative labels, follow-ups non-negative ones, so chains of follow-ups
// occur but always end.
func spawns(label int) (bool, Time) {
	if label < 0 {
		return -label%3 == 0, Time(-label % 5)
	}
	return label%4 == 0, Time(label % 5)
}

// runUntil pops events in (at, seq) order up to deadline, scheduling the
// follow-ups spawns asks for, as the property test's callbacks do on the
// real engine.
func (r *refEngine) runUntil(deadline Time) []int {
	var fired []int
	for len(r.pending) > 0 {
		min := 0
		for i, ev := range r.pending {
			m := r.pending[min]
			if ev.at < m.at || (ev.at == m.at && ev.seq < m.seq) {
				min = i
			}
		}
		ev := r.pending[min]
		if ev.at > deadline {
			break
		}
		r.pending = append(r.pending[:min], r.pending[min+1:]...)
		r.now = ev.at
		fired = append(fired, ev.label)
		if ok, d := spawns(ev.label); ok {
			r.add(r.now+d, r.next)
			r.next++
		}
	}
	if r.now < deadline {
		r.now = deadline
	}
	return fired
}

func (r *refEngine) reset() {
	r.now, r.seq, r.pending, r.maxPending = 0, 0, r.pending[:0], 0
}

// TestHeapMatchesReference drives random At/After/Cancel/Reset/RunUntil
// sequences through the engine and a sorted-by-scan reference queue: the
// fire order must be the (at, seq) order, Cancel must succeed exactly when
// the event is still pending (stale handles to recycled slots included),
// and Pending, MaxPending, NextEventAt and Now must agree after every step.
func TestHeapMatchesReference(t *testing.T) {
	for trial := int64(0); trial < 200; trial++ {
		rng := rand.New(rand.NewSource(trial))
		e := NewEngine(1)
		ref := &refEngine{}
		var fired []int
		next := 0 // label of the next follow-up the engine schedules
		var fire func(label int) Event
		fire = func(label int) Event {
			return func() {
				fired = append(fired, label)
				if ok, d := spawns(label); ok {
					e.After(d, fire(next))
					next++
				}
			}
		}
		type issued struct {
			h     Handle
			label int
		}
		var handles []issued
		explicit := -1
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(100); {
			case op < 40:
				at := e.Now() + Time(rng.Intn(20))
				handles = append(handles, issued{e.At(at, fire(explicit)), explicit})
				ref.add(at, explicit)
				explicit--
			case op < 55:
				d := Time(rng.Intn(20))
				handles = append(handles, issued{e.After(d, fire(explicit)), explicit})
				ref.add(ref.now+d, explicit)
				explicit--
			case op < 75:
				if len(handles) == 0 {
					continue
				}
				x := handles[rng.Intn(len(handles))]
				if got, want := e.Cancel(x.h), ref.cancel(x.label); got != want {
					t.Fatalf("trial %d step %d: Cancel(label %d) = %v, want %v", trial, step, x.label, got, want)
				}
			case op < 97:
				deadline := e.Now() + Time(rng.Intn(30))
				fired = fired[:0]
				e.RunUntil(deadline)
				want := ref.runUntil(deadline)
				if len(fired) != len(want) {
					t.Fatalf("trial %d step %d: fired %v, want %v", trial, step, fired, want)
				}
				for i := range want {
					if fired[i] != want[i] {
						t.Fatalf("trial %d step %d: fired %v, want %v", trial, step, fired, want)
					}
				}
			default:
				e.Reset(trial)
				ref.reset()
			}
			if next != ref.next {
				t.Fatalf("trial %d step %d: %d follow-ups, reference %d", trial, step, next, ref.next)
			}
			if e.Pending() != len(ref.pending) || e.MaxPending() != ref.maxPending || e.Now() != ref.now {
				t.Fatalf("trial %d step %d: pending %d max %d now %v, reference %d %d %v", trial, step,
					e.Pending(), e.MaxPending(), e.Now(), len(ref.pending), ref.maxPending, ref.now)
			}
			at, ok := e.NextEventAt()
			if ok != (len(ref.pending) > 0) {
				t.Fatalf("trial %d step %d: NextEventAt ok=%v with %d pending", trial, step, ok, len(ref.pending))
			}
			if ok {
				min := ref.pending[0].at
				for _, ev := range ref.pending {
					if ev.at < min {
						min = ev.at
					}
				}
				if at != min {
					t.Fatalf("trial %d step %d: NextEventAt %v, want %v", trial, step, at, min)
				}
			}
		}
	}
}

func TestZeroHandleCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(10, func() { ran = true })
	if e.Cancel(Handle{}) {
		t.Fatal("zero Handle cancel reported success")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after zero-Handle cancel, want 1", e.Pending())
	}
	e.Run()
	if !ran {
		t.Fatal("zero-Handle cancel removed an event")
	}
}

// TestForeignHandleCancel: handles name slab slots, and two engines hand out
// the same slot ids, so a handle from engine A must be rejected by engine B
// even when its slot and generation match a live event of B.
func TestForeignHandleCancel(t *testing.T) {
	a, b := NewEngine(1), NewEngine(1)
	ha := a.At(10, func() {})
	var order []int
	b.At(10, func() { order = append(order, 0) })
	b.At(20, func() { order = append(order, 1) })
	if b.Cancel(ha) {
		t.Fatal("engine B cancelled a handle issued by engine A")
	}
	if b.Pending() != 2 || b.MaxPending() != 2 {
		t.Fatalf("B after foreign cancel: pending %d max %d, want 2 2", b.Pending(), b.MaxPending())
	}
	b.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("B fired %v, want [0 1]", order)
	}
	if !a.Cancel(ha) {
		t.Fatal("engine A could not cancel its own handle")
	}
}
