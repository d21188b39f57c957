package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// refEvent is one pending event of the reference queue.
type refEvent struct {
	at    Time
	seq   uint64
	label int
}

// behavior is what the event labelled label does when it fires. It is a pure
// function of the label, so the engine's callbacks and the reference act
// alike as long as they fire the same events in the same order.
type behavior struct {
	follow     []Time // delays of the follow-ups it schedules; 0 means at now
	cancel     bool   // cancel an issued event, picked by pick
	cancelSelf bool   // cancel its own, already fired, event
	pick       uint64
	peekFirst  bool // read NextEventAt before scheduling anything
	peekLast   bool // read NextEventAt after its follow-ups and cancels
	stop       bool
}

// behave draws label's behavior. Explicitly scheduled events carry negative
// labels, follow-ups non-negative ones. A callback schedules 0, 1, 2 or 3
// follow-ups with mean 7/8, so every chain of follow-ups ends.
func behave(label int) behavior {
	h := mix64(uint64(label) + 0x51)
	var b behavior
	n := [8]int{0, 0, 0, 0, 1, 1, 2, 3}[h%8]
	for i := 0; i < n; i++ {
		b.follow = append(b.follow, Time(h>>(3+3*i)%5))
	}
	b.cancel = h>>12%4 == 0
	b.cancelSelf = h>>14%5 == 0
	b.pick = h >> 32
	b.peekFirst = h>>17%4 == 0
	b.peekLast = h>>19%2 == 0
	b.stop = h>>20%16 == 0
	return b
}

// refEngine is the executable specification the heap is checked against: an
// unsorted slice scanned for the (at, seq) minimum on every pop. It records
// what its callbacks observe in log, as the property test's callbacks do on
// the real engine.
type refEngine struct {
	now        Time
	seq        uint64
	pending    []refEvent
	maxPending int
	next       int   // label of the next follow-up event
	issued     []int // every label scheduled so far, in order
	stopped    bool
	log        []int64
}

func (r *refEngine) add(at Time, label int) {
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, label: label})
	r.seq++
	r.issued = append(r.issued, label)
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

// first returns the index of the earliest pending event, or -1.
func (r *refEngine) first() int {
	min := -1
	for i, ev := range r.pending {
		if min < 0 || ev.at < r.pending[min].at || (ev.at == r.pending[min].at && ev.seq < r.pending[min].seq) {
			min = i
		}
	}
	return min
}

// nextEventAt is Engine.NextEventAt's specification, flattened to one number
// for the log: the earliest pending time, or -1.
func (r *refEngine) nextEventAt() int64 {
	if i := r.first(); i >= 0 {
		return int64(r.pending[i].at)
	}
	return -1
}

// fire runs label's behavior.
func (r *refEngine) fire(label int) {
	b := behave(label)
	r.log = append(r.log, int64(label), int64(len(r.pending)), int64(r.maxPending))
	if b.peekFirst {
		r.log = append(r.log, r.nextEventAt())
	}
	for _, d := range b.follow {
		r.add(r.now+d, r.next)
		r.next++
	}
	if b.cancel {
		x := r.issued[b.pick%uint64(len(r.issued))]
		r.log = append(r.log, int64(x), b2i(r.cancel(x)))
	}
	if b.cancelSelf {
		r.log = append(r.log, b2i(r.cancel(label)))
	}
	if b.stop {
		r.stopped = true
	}
	r.log = append(r.log, int64(len(r.pending)), int64(r.maxPending))
	if b.peekLast {
		r.log = append(r.log, r.nextEventAt())
	}
}

// runUntil pops events in (at, seq) order up to deadline or a Stop.
func (r *refEngine) runUntil(deadline Time) {
	r.stopped = false
	for !r.stopped {
		i := r.first()
		if i < 0 || r.pending[i].at > deadline {
			break
		}
		ev := r.pending[i]
		r.pending = append(r.pending[:i], r.pending[i+1:]...)
		r.now = ev.at
		r.fire(ev.label)
	}
	if !r.stopped && r.now < deadline {
		r.now = deadline
	}
}

func (r *refEngine) reset() {
	r.now, r.seq, r.pending, r.maxPending = 0, 0, r.pending[:0], 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// checkHeap verifies the engine's internal invariants, inside callbacks
// too: every entry but the hold is ordered after its parent, the root is
// live unless every entry is dead, ndead counts exactly the dead entries,
// and no two live entries share a slot.
func checkHeap(t *testing.T, e *Engine, where string) {
	t.Helper()
	for i := 1; i < len(e.heap); i++ {
		if i != e.hold && before(e.heap[i], e.heap[(i-1)>>2]) {
			t.Fatalf("%s: heap entry %d is before its parent", where, i)
		}
	}
	if len(e.heap) > e.ndead && !e.live(e.heap[0]) {
		t.Fatalf("%s: dead root %+v", where, e.heap[0])
	}
	dead := 0
	slots := make(map[int32]bool)
	for _, x := range e.heap {
		if !e.live(x) {
			dead++
			continue
		}
		if slots[x.id] {
			t.Fatalf("%s: two live entries in slot %d", where, x.id)
		}
		slots[x.id] = true
	}
	if dead != e.ndead {
		t.Fatalf("%s: %d dead entries, ndead %d", where, dead, e.ndead)
	}
}

// TestHeapMatchesReference drives random At/After/Cancel/Reset/RunUntil
// sequences through the engine and a sorted-by-scan reference queue. Fired
// callbacks schedule 0 to 3 follow-ups (some at now), cancel issued events
// and their own fired handle, Stop the run, and read Pending, MaxPending and
// NextEventAt. The fire order must be the (at, seq) order, every Cancel must
// succeed exactly when the event is still pending (stale handles to
// recycled slots included), every reading inside a callback must match, and
// Pending, MaxPending, NextEventAt and Now must agree after every step. The
// test also counts the kernel paths it means to reach and fails if one was
// never taken.
func TestHeapMatchesReference(t *testing.T) {
	// The tournament counters record states in which that path must run:
	// a fire whose promotion saw five or more entries (the root's full
	// family) or two to four (a partial one), and a callback that leaves
	// its hold for release to fill from the last entry with a full family
	// (downFull) or a partial one below the held slot.
	var cover struct {
		hold, resetDead, reuseDead, stopRerun int
		promoteFull, downFull, partial        int
	}
	for trial := int64(0); trial < 200; trial++ {
		rng := rand.New(rand.NewSource(trial))
		e := NewEngine(1)
		ref := &refEngine{}
		var log []int64
		handles := make(map[int]Handle)
		var issued []int
		next := 0 // label of the next follow-up the engine schedules
		peek := func() int64 {
			if at, ok := e.NextEventAt(); ok {
				return int64(at)
			}
			return -1
		}
		var fire func(label int) Event
		fire = func(label int) Event {
			return func() {
				b := behave(label)
				if e.hold >= 0 { // no settle ran, so the heap is as promoted
					switch n := len(e.heap); {
					case n > 4:
						cover.promoteFull++
					case n > 1:
						cover.partial++
					}
				}
				log = append(log, int64(label), int64(e.Pending()), int64(e.MaxPending()))
				if b.peekFirst {
					log = append(log, peek())
				}
				if e.hold >= 0 && len(b.follow) > 0 {
					cover.hold++ // the first follow-up takes the held slot
				}
				for _, d := range b.follow {
					handles[next] = e.After(d, fire(next))
					issued = append(issued, next)
					next++
				}
				if b.cancel {
					x := issued[b.pick%uint64(len(issued))]
					log = append(log, int64(x), b2i(e.Cancel(handles[x])))
				}
				if b.cancelSelf {
					log = append(log, b2i(e.Cancel(handles[label])))
				}
				if b.stop {
					e.Stop()
				}
				log = append(log, int64(e.Pending()), int64(e.MaxPending()))
				if b.peekLast {
					log = append(log, peek())
				}
				if i, last := e.hold, len(e.heap)-1; i >= 0 {
					switch c := 4*i + 1; {
					case c+3 < last:
						cover.downFull++
					case c < last:
						cover.partial++
					}
				}
				checkHeap(t, e, fmt.Sprintf("trial %d callback %d", trial, label))
			}
		}
		explicit := -1
		stopped := false
		for step := 0; step < 300; step++ {
			where := fmt.Sprintf("trial %d step %d", trial, step)
			switch op := rng.Intn(100); {
			case op < 55:
				d := Time(rng.Intn(20))
				var h Handle
				if op < 40 {
					h = e.At(e.Now()+d, fire(explicit))
				} else {
					h = e.After(d, fire(explicit))
				}
				handles[explicit] = h
				issued = append(issued, explicit)
				for _, x := range e.heap {
					if x.id == h.id && x.gen != h.gen {
						cover.reuseDead++ // the slot of a dead, still queued entry
						break
					}
				}
				ref.add(ref.now+d, explicit)
				explicit--
			case op < 75:
				if len(issued) == 0 {
					continue
				}
				x := issued[rng.Intn(len(issued))]
				if got, want := e.Cancel(handles[x]), ref.cancel(x); got != want {
					t.Fatalf("%s: Cancel(label %d) = %v, want %v", where, x, got, want)
				}
			case op < 97:
				if stopped {
					cover.stopRerun++
				}
				deadline := e.Now() + Time(rng.Intn(30))
				log = log[:0]
				ref.log = ref.log[:0]
				e.RunUntil(deadline)
				ref.runUntil(deadline)
				stopped = ref.stopped
				if len(log) != len(ref.log) {
					t.Fatalf("%s: callbacks logged %v, reference %v", where, log, ref.log)
				}
				for i := range log {
					if log[i] != ref.log[i] {
						t.Fatalf("%s: callbacks logged %v, reference %v", where, log, ref.log)
					}
				}
			default:
				if e.ndead > 0 {
					cover.resetDead++
				}
				e.Reset(trial)
				ref.reset()
			}
			checkHeap(t, e, where)
			if next != ref.next {
				t.Fatalf("%s: %d follow-ups, reference %d", where, next, ref.next)
			}
			if e.Pending() != len(ref.pending) || e.MaxPending() != ref.maxPending || e.Now() != ref.now {
				t.Fatalf("%s: pending %d max %d now %v, reference %d %d %v", where,
					e.Pending(), e.MaxPending(), e.Now(), len(ref.pending), ref.maxPending, ref.now)
			}
			if got, want := peek(), ref.nextEventAt(); got != want {
				t.Fatalf("%s: NextEventAt %d, want %d", where, got, want)
			}
		}
	}
	if cover.hold == 0 || cover.resetDead == 0 || cover.reuseDead == 0 || cover.stopRerun == 0 ||
		cover.promoteFull == 0 || cover.downFull == 0 || cover.partial == 0 {
		t.Fatalf("battery missed a kernel path: %+v", cover)
	}
	t.Logf("kernel paths reached: %+v", cover)
}

// before is the kernel's event order written the obvious way: time, then
// scheduling sequence. It is the specification lt is checked against.
func before(a, b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// TestLtMatchesOrder checks the branch-free 128-bit compare against the
// plain (at, seq) order: on every pair drawn from the edge values of both
// fields (an entry against itself included, which must give 0), and on a
// seeded random sweep whose times often tie, so that seq decides.
func TestLtMatchesOrder(t *testing.T) {
	check := func(a, b entry) {
		t.Helper()
		want := 0
		if before(a, b) {
			want = 1
		}
		if got := lt(a, b); got != want {
			t.Fatalf("lt(%+v, %+v) = %d, want %d", a, b, got, want)
		}
	}
	ats := []Time{0, 1, 1 << 62, 1<<63 - 1}
	seqs := []uint64{0, 1, 1 << 63, 1<<64 - 1}
	var edges []entry
	for _, at := range ats {
		for _, seq := range seqs {
			edges = append(edges, entry{at: at, seq: seq})
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	draw := func() entry {
		at := Time(rng.Int63())
		if rng.Intn(2) == 0 {
			at = Time(rng.Intn(4)) // small times, so ties are common
		}
		return entry{at: at, seq: rng.Uint64()}
	}
	for i := 0; i < 100000; i++ {
		a, b := draw(), draw()
		check(a, b)
		check(b, a)
		check(a, a)
		b.at = a.at
		check(a, b)
		check(b, a)
	}
}

// TestResetInsideCallback: a callback that resets its engine drops the
// hold with everything else, and the run ends cleanly.
func TestResetInsideCallback(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.At(5, func() { ran++; e.Reset(2) })
	e.At(7, func() { ran++ })
	e.RunUntil(10)
	if ran != 1 || e.Pending() != 0 {
		t.Fatalf("ran %d, pending %d after a reset inside a callback, want 1 and 0", ran, e.Pending())
	}
	e.At(e.Now()+1, func() { ran++ })
	e.Run()
	if ran != 2 {
		t.Fatalf("ran %d after rescheduling, want 2", ran)
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
