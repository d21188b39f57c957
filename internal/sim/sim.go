// Package sim provides the deterministic discrete-event simulation kernel
// that underpins every architectural model in this repository.
//
// The kernel is intentionally small: a virtual clock, a 4-ary min-heap of
// timestamped events over a slab of event callbacks, and named pseudo-random
// streams. Determinism is a hard requirement — two runs with the same seed
// must produce bit-identical results — so ties between events at the same
// timestamp are broken by a monotonically increasing sequence number, and
// all randomness is drawn from streams derived from the engine seed plus a
// stream name. Every event carries an owner tag, an int32 that the caller
// sets outside callbacks; while the engine counts tags, events scheduled
// from a callback inherit the firing event's, and the engine counts per tag
// the events fired and the RunUntil calls they fired in, so models that put
// several owners on one engine still account each owner's work. A heap
// entry is 16 bytes, the event's time and a key that packs its sequence
// number over its slab slot; the heap orders entries with one branch-free
// compare of (time, key) as a 128-bit unsigned number, valid because event
// times are never negative, and picks the smallest of four children by a
// tournament of such compares.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/bits"
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

// An event's key is its sequence number shifted over its slab slot:
// seq<<slotBits | slot. The engine never issues a sequence number twice,
// Reset included, so a key names one event for the engine's lifetime.
const (
	slotBits = 22
	slotMask = 1<<slotBits - 1
	// maxSeq is the last sequence number At issues, one short of what the
	// 42 sequence bits hold, so that no event's key is deadKey.
	maxSeq = 1<<(64-slotBits) - 2
	// deadKey marks a free slot.
	deadKey = ^uint64(0)
)

// maxSlots caps the slab at what a key's slot bits can name. It is a
// variable only so that a test can reach the cap without allocating it.
var maxSlots = 1 << slotBits

// entry is one heap element: the event's time and key. An entry whose key
// no longer matches its slot's is dead (fired or cancelled) and is dropped
// when it reaches the root. Entries hold no pointers, so sifting moves two
// plain words and the garbage collector never scans the heap array.
type entry struct {
	at  Time
	key uint64
}

// slot returns the slab slot of x's event.
func (x entry) slot() int32 { return int32(x.key & slotMask) }

// lt is the kernel's total event order, time then scheduling sequence: it
// returns 1 if a is before b and 0 otherwise. (at, key) is compared as one
// 128-bit unsigned number, the borrow of the key subtraction chained into
// the at subtraction, so the answer comes out of the final borrow with no
// data-dependent branch. Keys order as their sequence numbers do, since
// those are unique and sit in the high bits. Reading at as unsigned is
// exact because at is never negative: At refuses times before now, and now
// starts at 0 and only moves forward. It takes entries by value so that the
// entry being sifted stays in registers: taking its address spilled it to
// the stack and made every sift reload it.
func lt(a, b entry) int {
	_, borrow := bits.Sub64(a.key, b.key, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// node is a slab slot: the callback of one scheduled event, its key and its
// owner tag. Recycling the slot sets the key to deadKey, which kills the
// slot's heap entry and every Handle to it in one write; a later event in
// the slot gets a new key, so a stale Handle or entry cannot touch it.
type node struct {
	fn  Event
	key uint64
	tag int32
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle refers to no event.
type Handle struct {
	eng *Engine // the engine whose slab key indexes; nil for the zero Handle
	key uint64
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// create engines with NewEngine.
//
// Pending events live in a 4-ary min-heap of 16-byte value entries
// {at, key} ordered by (at, key); the key names a slot in a slab of
// {fn, key, tag} nodes, and an entry is live while its slot holds its key.
// Freed slots go on a free list and are reused, so a warm engine schedules
// without allocating.
//
// The pop path costs one sift per event. Firing the root promotes its
// smaller child into the root and holds the vacated slot, with the fired and
// now dead entry in it, while the callback runs (the "hold"). The callback's
// first At takes the held slot and sifts down from there; if the callback
// schedules nothing, the last entry takes it instead. Cancel is lazy: it
// clears the slot's key and leaves the dead entry in the heap, to be dropped
// when it reaches the root. ndead counts the dead entries, the hold
// included, so Pending is len(heap) - ndead.
//
// Every ordering decision goes through lt, a branch-free 128-bit compare of
// (at, key) that relies on at never being negative. A sift level with four
// children picks the smallest by a tournament of three lt results combined
// arithmetically, so its only branch is the loop exit; the event order, and
// with it every output, is the same as with a branchy min-of-4.
//
// The root is live whenever len(heap) > ndead, inside callbacks too, so
// NextEventAt, which conservative PDES calls twice per shard per window, is
// one comparison and a read of heap[0]: no slab access, no call, inlined.
//
// Keys bound an engine to 2^22 events pending at once and 2^42 events
// scheduled over its lifetime; At panics, naming the limit, beyond either.
//
// Owner tags cost an engine that does not count them one store in At (the
// tag into the slot) and one predictable nil check per fired event.
type Engine struct {
	now   Time
	seq   uint64
	heap  []entry
	ndead int // dead heap entries: cancelled ones plus the hold
	hold  int // heap index of the hold while a callback runs; -1 otherwise
	nodes []node
	free  []int32 // recycled slab slots (fire/cancel feed it)
	rng   Streams // the named random streams Rand draws from
	fired uint64
	// maxPending is the live-event high-water mark since the last Reset —
	// the obs layer's "sim.heap.peak" instrument. Tracking it is one
	// predictable branch per schedule, cheap enough to stay always-on.
	maxPending int
	// tag is the owner tag At gives new events: the one SetTag set, or
	// while counting the firing event's inside a callback.
	tag int32
	// counts holds one tagCount per tag once CountTags turned counting on,
	// and is nil otherwise. call numbers RunUntil calls, so a tag's count
	// knows whether it already fired in the current one.
	counts []tagCount
	call   uint64
}

// tagCount is the accounting of one owner tag: the events it fired, the
// RunUntil calls in which it fired any, and the last such call.
type tagCount struct {
	events, calls, last uint64
}

// NewEngine returns an engine whose random streams all derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{hold: -1, rng: *NewStreams(seed)}
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
			e.recycle(x.slot())
		}
	}
	e.heap = e.heap[:0]
	e.ndead = 0
	e.hold = -1
	e.now = 0
	// seq carries on: keys are never reissued, so a Handle from before the
	// reset stays dead. Only differences of seq order events, so a reset
	// engine fires exactly what a fresh one does.
	e.fired = 0
	e.maxPending = 0
	e.tag = 0
	e.counts = nil // a reused engine never carries its last user's counting
	e.call = 0
	e.rng.Reset(seed)
}

// live reports whether heap entry x is still scheduled.
func (e *Engine) live(x entry) bool { return e.nodes[x.slot()].key == x.key }

// recycle returns a slot to the free list, killing its heap entry and
// invalidating outstanding handles.
func (e *Engine) recycle(id int32) {
	n := &e.nodes[id]
	n.fn = nil
	n.key = deadKey
	e.free = append(e.free, id)
}

// alloc produces a blank slab slot, reusing a recycled one when available.
// Its panic message is a constant so that alloc stays cheap enough to
// inline into At.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		return id
	}
	if len(e.nodes) >= maxSlots {
		panic("sim: event slab full: more than 2^22 events pending at once")
	}
	e.nodes = append(e.nodes, node{key: deadKey})
	return int32(len(e.nodes) - 1)
}

// up moves x from heap index i toward the root to its place, filling the
// hole it leaves behind.
func (e *Engine) up(i int, x entry) {
	h := e.heap
	for i > 0 {
		p := (i - 1) >> 2
		if lt(x, h[p]) == 0 {
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
		var best int
		if c+3 < n {
			// A full family: a two-round tournament of branch-free
			// compares picks the smallest child, so the only branch
			// left in the level is the loop exit below. The masks leave
			// a and b unchanged and let the compiler drop bounds checks.
			k := h[c : c+4 : c+4]
			a := lt(k[1], k[0])
			b := 2 + lt(k[3], k[2])
			best = c + a + (b-a)*lt(k[b&3], k[a&3])
		} else if c < n {
			best = c
			for j := c + 1; j < n; j++ {
				best += (j - best) * lt(h[j], h[best])
			}
		} else {
			break
		}
		if lt(h[best], x) == 0 {
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

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug.
func (e *Engine) At(t Time, fn Event) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if e.seq > maxSeq {
		panic(fmt.Sprintf("sim: event sequence exhausted: %d events scheduled on one engine", e.seq))
	}
	id := e.alloc()
	x := entry{at: t, key: e.seq<<slotBits | uint64(id)}
	e.seq++
	n := &e.nodes[id]
	n.fn = fn
	n.key = x.key
	n.tag = e.tag
	if i := e.hold; i >= 0 {
		// The first follow-up of a running callback takes the held slot,
		// a child of the root or the root itself, so x moves up at most
		// one level: with the promotion at fire time, one sift per event.
		e.hold = -1
		e.ndead--
		if h := e.heap; i > 0 && lt(x, h[0]) == 1 {
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
	return Handle{eng: e, key: x.key}
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
// engine is a no-op and returns false. A key's slot indexes only its own
// engine's slab, which never shrinks, and a slot holds an event's key only
// until the event fires or is cancelled, so a matching key means still
// pending.
func (e *Engine) Cancel(h Handle) bool {
	id := int32(h.key & slotMask)
	if h.eng != e || e.nodes[id].key != h.key {
		return false
	}
	e.recycle(id)
	e.ndead++
	e.settle()
	return true
}

// SetTag sets the owner tag that events scheduled from outside callbacks
// (model setup, code between RunUntil calls) carry. While the engine counts
// tags (CountTags), the tag inside a callback is the firing event's, so
// everything a callback schedules inherits it, and RunUntil restores the
// caller's on return. Without counting, every event carries the tag last
// set here.
func (e *Engine) SetTag(tag int32) { e.tag = tag }

// Tag returns the owner tag At currently gives new events.
func (e *Engine) Tag() int32 { return e.tag }

// CountTags turns on per-tag accounting for tags 0..n-1, keeping the counts
// already taken. From then on RunUntil runs each event under its own tag
// and counts, for each tag, the events it fires and the calls in which it
// fires at least one (TagCounts reads both). Firing an event whose tag is
// outside 0..n-1 panics. Reset turns counting off.
func (e *Engine) CountTags(n int) {
	if n > len(e.counts) {
		e.counts = append(e.counts, make([]tagCount, n-len(e.counts))...)
	}
}

// TagCounts returns the number of events with the given tag fired since
// CountTags turned counting on, and the number of RunUntil calls in which
// at least one of them fired. Both are 0 for a tag that is not counted.
func (e *Engine) TagCounts(tag int32) (events, calls uint64) {
	if tag < 0 || int(tag) >= len(e.counts) {
		return 0, 0
	}
	c := e.counts[tag]
	return c.events, c.calls
}

// count makes tag the firing event's and records the event.
func (e *Engine) count(tag int32) {
	e.tag = tag
	c := &e.counts[tag]
	c.events++
	if c.last != e.call {
		c.last = e.call
		c.calls++
	}
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	e.RunUntil(Time(1<<63 - 1))
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline (if it advanced that far). Events scheduled beyond deadline
// remain pending. While tags are counted each event runs under its own
// owner tag; the caller's tag is restored on return.
func (e *Engine) RunUntil(deadline Time) {
	caller := e.tag
	e.call++
	for {
		if e.hold >= 0 {
			e.release() // the last callback scheduled nothing
		}
		if len(e.heap) == 0 {
			break
		}
		next := e.heap[0]
		if next.at > deadline {
			break
		}
		e.now = next.at
		e.fired++
		id := next.slot()
		fn := e.nodes[id].fn
		if e.counts != nil {
			e.count(e.nodes[id].tag)
		}
		// Recycle before firing, so fn's follow-up (arrival loops, timer
		// chains) reuses this slot at once. Then promote the root's smaller
		// child into the root and hold the child's slot, with the dead
		// entry in it, for that follow-up to take.
		e.recycle(id)
		e.ndead++
		h := e.heap
		e.hold = 0
		if n := len(h); n > 1 {
			best := 1
			if n > 4 {
				// The same tournament as down's over the root's four children.
				k := h[1:5:5]
				a := lt(k[1], k[0])
				b := 2 + lt(k[3], k[2])
				best += a + (b-a)*lt(k[b&3], k[a&3])
			} else {
				for j := 2; j < n; j++ {
					best += (j - best) * lt(h[j], h[best])
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
	e.tag = caller
	if e.now < deadline && deadline < Time(1<<62) {
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
func (e *Engine) Rand(name string) *rand.Rand { return e.rng.Rand(name) }

// Streams returns the engine's stream bundle: drawing from it is drawing
// from Rand, and Reset re-seeds it.
func (e *Engine) Streams() *Streams { return &e.rng }

// streamHash maps a stream name to the seed perturbation used by Rand and
// Reset. Reset re-seeds surviving streams with the same function, so a
// reused engine and a fresh one draw identical sequences.
func streamHash(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// Streams is a bundle of named deterministic random streams, all derived
// from one seed. Every engine holds one (Engine.Rand draws from it); a
// simulation entity that owns a separate bundle draws the same sequences no
// matter which engine hosts its events or what else runs on it — the
// property that lets the coupled fleet's servers share one engine without
// drawing from each other's streams.
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
// bundle seed on first use.
func (s *Streams) Rand(name string) *rand.Rand {
	if r, ok := s.streams[name]; ok {
		return r
	}
	r := rand.New(rand.NewSource(s.seed ^ streamHash(name)))
	s.streams[name] = r
	return r
}

// Reset re-seeds the bundle in place under a new seed, keeping the streams
// it has cached: a reset bundle draws exactly what NewStreams(seed) would,
// so a pooled bundle (or a reset engine's) serves run after run without
// allocating a source per stream.
func (s *Streams) Reset(seed int64) {
	s.seed = seed
	for name, r := range s.streams {
		r.Seed(seed ^ streamHash(name))
	}
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
