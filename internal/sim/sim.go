// Package sim provides the deterministic discrete-event simulation kernel
// that underpins every architectural model in this repository.
//
// The kernel is intentionally small: a virtual clock, a 4-ary min-heap of
// timestamped events over a slab of event callbacks, and named pseudo-random
// streams. Determinism is a hard requirement — two runs with the same seed
// must produce bit-identical results — so ties between events at the same
// timestamp are broken by a monotonically increasing sequence number, and
// all randomness is drawn from streams derived from the engine seed plus a
// stream name.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Time is the simulation clock in picoseconds. int64 picoseconds cover about
// 106 days of simulated time, far beyond any experiment in this repository.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t in microseconds as a float, the unit the paper uses for
// most latency plots.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis reports t in milliseconds as a float.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromMicros converts a duration in microseconds to a Time.
func FromMicros(us float64) Time { return Time(us * float64(Microsecond)) }

// FromSeconds converts a duration in seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Event is a callback scheduled to run at a point in virtual time.
type Event func()

// entry is one heap element: its (at, seq) key, the slab slot holding its
// callback and the slot generation it was scheduled under. An entry whose
// gen no longer matches its slot's is dead (fired or cancelled) and is
// dropped when it reaches the root. Entries hold no pointers, so sifting
// moves plain words and the garbage collector never scans the heap array.
type entry struct {
	at  Time
	seq uint64
	id  int32
	gen uint32
}

// before is the kernel's total event order: time, then scheduling sequence.
func (a entry) before(b entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// node is a slab slot: the callback of one scheduled event and the slot's
// generation. The generation is bumped every time the slot is recycled, which
// kills the slot's heap entry and every Handle to it in one write, so a stale
// Handle or entry cannot touch a later event that reuses the slot.
type node struct {
	fn  Event
	gen uint32
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle refers to no event.
type Handle struct {
	eng *Engine // the engine whose slab id indexes; nil for the zero Handle
	id  int32
	gen uint32
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// create engines with NewEngine.
//
// Pending events live in a 4-ary min-heap of value entries ordered by
// (at, seq); each entry names a slot in a slab of {fn, gen} nodes. Freed
// slots go on a free list and are reused, so a warm engine schedules without
// allocating.
//
// The pop path costs one sift per event. Firing the root promotes its
// smaller child into the root and holds the vacated slot, with the fired and
// now dead entry in it, while the callback runs (the "hold"). The callback's
// first At takes the held slot and sifts down from there; if the callback
// schedules nothing, the last entry takes it instead. Cancel is lazy: it bumps
// the slot generation and leaves the dead entry in the heap, to be dropped
// when it reaches the root. ndead counts the dead entries, the hold
// included, so Pending is len(heap) - ndead.
//
// The root is live whenever len(heap) > ndead, inside callbacks too, so
// NextEventAt, which conservative PDES calls twice per shard per window, is
// one comparison and a read of heap[0]: no slab access, no call, inlined.
//
// Generations are uint32: a dead entry would come back to life only if its
// slot were recycled 2^32 times while the entry was still in the heap.
type Engine struct {
	now     Time
	seq     uint64
	heap    []entry
	ndead   int // dead heap entries: cancelled ones plus the hold
	hold    int // heap index of the hold while a callback runs; -1 otherwise
	nodes   []node
	free    []int32 // recycled slab slots (fire/cancel feed it)
	seed    int64
	streams map[string]*rand.Rand
	fired   uint64
	stopped bool
	// maxPending is the live-event high-water mark since the last Reset —
	// the obs layer's "sim.heap.peak" instrument. Tracking it is one
	// predictable branch per schedule, cheap enough to stay always-on.
	maxPending int
	// resets counts Reset calls over the engine's lifetime, exposing how
	// deep the engine-reuse pool recycling goes.
	resets uint64
}

// NewEngine returns an engine whose random streams all derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed, hold: -1, streams: make(map[string]*rand.Rand)}
}

// NewEngineCap returns an engine with event-heap, slab and free-list storage
// preallocated for roughly capHint concurrently pending events, avoiding
// repeated growth in event-heavy runs.
func NewEngineCap(seed int64, capHint int) *Engine {
	e := NewEngine(seed)
	if capHint > 0 {
		e.heap = make([]entry, 0, capHint)
		e.nodes = make([]node, 0, capHint)
		e.free = make([]int32, 0, capHint)
	}
	return e
}

// Reset rewinds the engine to a fresh state under a new seed while keeping
// its allocated storage (event heap, slab, free list, random streams). A
// reset engine behaves exactly like NewEngine(seed): existing streams are
// re-seeded in place, so replicate loops can reuse one engine with
// bit-identical results.
func (e *Engine) Reset(seed int64) {
	for _, x := range e.heap {
		if e.live(x) { // dead entries' slots are already on the free list
			e.recycle(x.id)
		}
	}
	e.heap = e.heap[:0]
	e.ndead = 0
	e.hold = -1
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stopped = false
	e.maxPending = 0
	e.resets++
	e.seed = seed
	for name, r := range e.streams {
		r.Seed(seed ^ streamHash(name))
	}
}

// live reports whether heap entry x is still scheduled.
func (e *Engine) live(x entry) bool { return e.nodes[x.id].gen == x.gen }

// recycle returns a slot to the free list, killing its heap entry and
// invalidating outstanding handles.
func (e *Engine) recycle(id int32) {
	n := &e.nodes[id]
	n.fn = nil
	n.gen++
	e.free = append(e.free, id)
}

// alloc produces a blank slab slot, reusing a recycled one when available.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	e.nodes = append(e.nodes, node{})
	return int32(len(e.nodes) - 1)
}

// up moves x from heap index i toward the root to its place, filling the
// hole it leaves behind.
func (e *Engine) up(i int, x entry) {
	h := e.heap
	for i > 0 {
		p := (i - 1) >> 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down moves x from heap index i toward the leaves to its place.
func (e *Engine) down(i int, x entry) {
	h := e.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(h[best]) {
				best = j
			}
		}
		if !h[best].before(x) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
}

// release drops the hold of a callback that scheduled nothing: the last
// entry takes the held slot and sifts down. The root is the smallest entry
// left, so it stays where it is.
func (e *Engine) release() {
	i := e.hold
	e.hold = -1
	e.ndead--
	last := len(e.heap) - 1
	x := e.heap[last]
	e.heap = e.heap[:last]
	if i < last {
		e.down(i, x)
	}
}

// settle pops dead entries off the root until the root is live or the heap
// is empty, restoring the invariant that NextEventAt relies on.
func (e *Engine) settle() {
	if e.hold >= 0 && !e.live(e.heap[0]) {
		e.release() // the root's children must be in order before a pop
	}
	for len(e.heap) > 0 && !e.live(e.heap[0]) {
		last := len(e.heap) - 1
		x := e.heap[last]
		e.heap = e.heap[:last]
		if last > 0 {
			e.down(0, x)
		}
		e.ndead--
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far (useful for perf
// reporting and as a runaway-simulation guard in tests).
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled.
func (e *Engine) Pending() int { return len(e.heap) - e.ndead }

// MaxPending returns the event heap's high-water mark since the last Reset
// (or engine creation) — a capacity-planning and obs-layer statistic.
func (e *Engine) MaxPending() int { return e.maxPending }

// Resets returns how many times this engine has been Reset, i.e. how often
// pool recycling reused its storage.
func (e *Engine) Resets() uint64 { return e.resets }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug.
func (e *Engine) At(t Time, fn Event) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	id := e.alloc()
	n := &e.nodes[id]
	n.fn = fn
	x := entry{at: t, seq: e.seq, id: id, gen: n.gen}
	e.seq++
	if i := e.hold; i >= 0 {
		// The first follow-up of a running callback takes the held slot,
		// a child of the root or the root itself, so x moves up at most
		// one level: with the promotion at fire time, one sift per event.
		e.hold = -1
		e.ndead--
		if h := e.heap; i > 0 && x.before(h[0]) {
			h[i], h[0] = h[0], x
		} else {
			e.down(i, x)
		}
	} else {
		e.heap = append(e.heap, x)
		e.up(len(e.heap)-1, x)
	}
	if p := len(e.heap) - e.ndead; p > e.maxPending {
		e.maxPending = p
	}
	return Handle{eng: e, id: id, gen: n.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn Event) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an event that already fired
// (or was already cancelled), the zero Handle, or a Handle issued by another
// engine is a no-op and returns false. Slot ids index only their own engine's
// slab, which never shrinks, and a slot's generation changes whenever its
// event fires or is cancelled, so a matching generation means still pending.
func (e *Engine) Cancel(h Handle) bool {
	if h.eng != e || e.nodes[h.id].gen != h.gen {
		return false
	}
	e.recycle(h.id)
	e.ndead++
	e.settle()
	return true
}

// Stop makes Run / RunUntil return after the currently executing event.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(Time(1<<63 - 1))
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (if it advanced that far). Events scheduled beyond deadline
// remain pending.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for {
		if e.hold >= 0 {
			e.release() // the last callback scheduled nothing
		}
		if len(e.heap) == 0 || e.stopped {
			break
		}
		next := e.heap[0]
		if next.at > deadline {
			break
		}
		e.now = next.at
		e.fired++
		fn := e.nodes[next.id].fn
		// Recycle before firing, so fn's follow-up (arrival loops, timer
		// chains) reuses this slot at once. Then promote the root's smaller
		// child into the root and hold the child's slot, with the dead
		// entry in it, for that follow-up to take.
		e.recycle(next.id)
		e.ndead++
		h := e.heap
		e.hold = 0
		if n := len(h); n > 1 {
			best := 1
			for j := 2; j < n && j < 5; j++ {
				if h[j].before(h[best]) {
					best = j
				}
			}
			h[0], h[best] = h[best], next
			e.hold = best
		}
		if e.ndead > 1 {
			e.settle() // a cancelled entry may have been promoted to the root
		}
		fn()
	}
	if !e.stopped && e.now < deadline && deadline < Time(1<<62) {
		e.now = deadline
	}
}

// NextEventAt reports the timestamp of the earliest pending event, or false
// when the queue is empty. It is the peek primitive conservative parallel
// simulation needs: a synchronization layer bounds the next barrier by the
// earliest thing any engine could possibly do.
func (e *Engine) NextEventAt() (Time, bool) {
	if len(e.heap) == e.ndead {
		return 0, false
	}
	return e.heap[0].at, true
}

// Rand returns the named random stream, creating it deterministically from
// the engine seed on first use. Distinct names yield independent streams;
// the same name always yields the same stream.
func (e *Engine) Rand(name string) *rand.Rand {
	if r, ok := e.streams[name]; ok {
		return r
	}
	r := rand.New(rand.NewSource(e.seed ^ streamHash(name)))
	e.streams[name] = r
	return r
}

// streamHash maps a stream name to the seed perturbation used by Rand and
// Reset. Reset re-seeds surviving streams with the same function, so a
// reused engine and a fresh one draw identical sequences.
func streamHash(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// Streams is an engine-independent bundle of named deterministic random
// streams, derived from a seed exactly like Engine.Rand derives them from
// the engine seed. A simulation entity that owns a Streams draws the same
// sequences no matter which engine hosts its events — the property that
// lets a sharded (one-engine-per-server) fleet and a single-engine
// reference execution stay bit-identical.
type Streams struct {
	seed    int64
	streams map[string]*rand.Rand
}

// NewStreams returns a stream bundle whose named streams all derive from
// seed. NewStreams(s).Rand(name) draws the same sequence as
// NewEngine(s).Rand(name).
func NewStreams(seed int64) *Streams {
	return &Streams{seed: seed, streams: make(map[string]*rand.Rand)}
}

// Rand returns the named stream, creating it deterministically from the
// bundle seed on first use — the same (seed, name) derivation as
// Engine.Rand.
func (s *Streams) Rand(name string) *rand.Rand {
	if r, ok := s.streams[name]; ok {
		return r
	}
	r := rand.New(rand.NewSource(s.seed ^ streamHash(name)))
	s.streams[name] = r
	return r
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit bijection, so
// structured inputs (small integers, additive offsets) map to uncorrelated
// outputs.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// DeriveSeed derives an independent child seed from a base seed and an
// index via a splitmix64-style hash. It replaces additive strides
// (base + idx*K), which collide whenever two base seeds differ by a small
// multiple of the stride — e.g. a replicate at base+K reusing child 1's
// stream of the original base. The base is avalanched *before* the index is
// combined, so (base, idx) and (base+K, idx-1) can never land on the same
// stream by construction.
func DeriveSeed(base int64, idx int64) int64 {
	z := mix64(uint64(base)+0x9e3779b97f4a7c15) + uint64(idx)*0x9e3779b97f4a7c15
	return int64(mix64(z))
}
