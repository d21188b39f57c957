package rq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// newRQ and newNICBuffer build one queue or buffer through the
// constructors a machine builds its villages' with.
func newRQ(capacity int) *RQ { return &NewQueues(1, capacity)[0] }

func newNICBuffer(capacity int) *NICBuffer { return &NewNICBuffers(1, capacity)[0] }

func TestStatusString(t *testing.T) {
	if Ready.String() != "ready" || Running.String() != "running" ||
		Blocked.String() != "blocked" || Finished.String() != "finished" {
		t.Fatal("status strings")
	}
	if Status(42).String() == "" {
		t.Fatal("unknown status string")
	}
}

func TestEnqueueDequeueFCFS(t *testing.T) {
	q := newRQ(8)
	a := q.Enqueue(1, &Context{RequestID: 1})
	b := q.Enqueue(1, &Context{RequestID: 2})
	if a == nil || b == nil {
		t.Fatal("enqueue failed")
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.Dequeue(1, 0)
	if got != a {
		t.Fatal("FCFS violated: oldest ready entry not returned")
	}
	if got.Status != Running || got.Ctx.Core != 0 {
		t.Fatalf("dequeued entry = %+v", got)
	}
	if q.Dequeue(1, 1) != b {
		t.Fatal("second dequeue wrong")
	}
}

func TestDequeueServiceFilter(t *testing.T) {
	q := newRQ(8)
	q.Enqueue(1, &Context{})
	e2 := q.Enqueue(2, &Context{})
	if got := q.Dequeue(2, 0); got != e2 {
		t.Fatal("service filter failed")
	}
	if q.Dequeue(3, 0) != nil {
		t.Fatal("dequeue for absent service should be nil")
	}
	// Wildcard matches the remaining service-1 entry.
	if q.Dequeue(-1, 0) == nil {
		t.Fatal("wildcard dequeue failed")
	}
}

func TestCapacityAndRejection(t *testing.T) {
	q := newRQ(2)
	q.Enqueue(1, &Context{})
	q.Enqueue(1, &Context{})
	if q.Enqueue(1, &Context{}) != nil {
		t.Fatal("over-capacity enqueue succeeded")
	}
	if q.Len() != 2 {
		t.Fatalf("len=%d", q.Len())
	}
}

func TestCompleteAdvancesHead(t *testing.T) {
	q := newRQ(4)
	a := q.Enqueue(1, &Context{})
	b := q.Enqueue(1, &Context{})
	c := q.Enqueue(1, &Context{})
	q.Dequeue(1, 0) // a
	q.Dequeue(1, 1) // b
	// Complete b first: head (a) is running, so no reclaim yet.
	q.Complete(b)
	if q.Len() != 3 {
		t.Fatalf("Len after mid-complete = %d", q.Len())
	}
	// Complete a: head advances past a AND the already-finished b.
	q.Complete(a)
	if q.Len() != 1 {
		t.Fatalf("Len after head complete = %d", q.Len())
	}
	if q.Dequeue(1, 2) != c {
		t.Fatal("the surviving entry is not at the head")
	}
}

func TestRingWraparound(t *testing.T) {
	q := newRQ(3)
	for round := 0; round < 10; round++ {
		e := q.Enqueue(1, &Context{RequestID: uint64(round)})
		if e == nil {
			t.Fatalf("round %d enqueue failed", round)
		}
		got := q.Dequeue(1, 0)
		if got.Ctx.RequestID != uint64(round) {
			t.Fatalf("round %d got request %d", round, got.Ctx.RequestID)
		}
		q.Complete(got)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestContextSwitchLifecycle(t *testing.T) {
	q := newRQ(4)
	e := q.Enqueue(7, &Context{RequestID: 99})
	got := q.Dequeue(7, 3)
	q.ContextSwitch(got, 320)
	if got.Status != Blocked || !got.Ctx.StateSaved || got.Ctx.SavedStateBytes != 320 {
		t.Fatalf("after ContextSwitch: %+v ctx %+v", got, got.Ctx)
	}
	// Blocked entries are not dequeued.
	if q.Dequeue(7, 0) != nil {
		t.Fatal("blocked entry dequeued")
	}
	if q.HasReady(7) {
		t.Fatal("HasReady true while blocked")
	}
	q.Unblock(got)
	if !q.HasReady(7) {
		t.Fatal("HasReady false after unblock")
	}
	again := q.Dequeue(7, 5)
	if again != e || again.Ctx.Core != 5 || again.Ctx.StateSaved {
		t.Fatalf("re-dequeue: %+v ctx %+v", again, again.Ctx)
	}
	q.Complete(again)
	if q.Len() != 0 {
		t.Fatal("not reclaimed")
	}
}

func TestLifecyclePanics(t *testing.T) {
	q := newRQ(2)
	e := q.Enqueue(1, &Context{})
	mustPanic(t, "ContextSwitch on ready", func() { q.ContextSwitch(e, 1) })
	mustPanic(t, "Unblock on ready", func() { q.Unblock(e) })
	mustPanic(t, "Complete on ready", func() { q.Complete(e) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestHasReadyWildcard(t *testing.T) {
	q := newRQ(4)
	if q.HasReady(-1) {
		t.Fatal("empty queue has ready")
	}
	q.Enqueue(5, &Context{})
	if !q.HasReady(-1) || !q.HasReady(5) || q.HasReady(6) {
		t.Fatal("HasReady filters wrong")
	}
	if q.ready != 1 {
		t.Fatalf("ready count = %d", q.ready)
	}
}

func TestPartitionedRQ(t *testing.T) {
	q := newRQ(8)
	q.SetPartition(map[int]int{1: 2, 2: 4})
	q.Enqueue(1, &Context{})
	q.Enqueue(1, &Context{})
	if q.Enqueue(1, &Context{}) != nil {
		t.Fatal("partition limit not enforced")
	}
	if q.Enqueue(2, &Context{}) == nil {
		t.Fatal("other service blocked by partition")
	}
	// Completing frees partition budget.
	e := q.Dequeue(1, 0)
	q.Complete(e)
	if q.Enqueue(1, &Context{}) == nil {
		t.Fatal("partition budget not released")
	}
	q.SetPartition(nil)
	for i := 0; i < 5; i++ {
		q.Enqueue(1, &Context{})
	}
	if q.Len() > q.Capacity() {
		t.Fatal("capacity violated after partition removal")
	}
}

func TestPartitionTooBigPanics(t *testing.T) {
	q := newRQ(4)
	mustPanic(t, "oversized partition", func() { q.SetPartition(map[int]int{1: 3, 2: 3}) })
}

func TestInvalidCapacityPanics(t *testing.T) {
	mustPanic(t, "zero capacity", func() { newRQ(0) })
	beyond := int64(math.MaxInt32) + 1
	mustPanic(t, "capacity beyond int32", func() { newRQ(int(beyond)) })
	mustPanic(t, "negative NIC buffer capacity", func() { newNICBuffer(-1) })
	mustPanic(t, "NIC buffer capacity beyond int32", func() { newNICBuffer(int(beyond)) })
}

func TestNICBufferOfferDrain(t *testing.T) {
	q := newRQ(2)
	b := newNICBuffer(3)
	q.Enqueue(1, &Context{RequestID: 1})
	q.Enqueue(1, &Context{RequestID: 2})
	// RQ full: spill to NIC buffer.
	for i := uint64(3); i <= 5; i++ {
		if !b.Offer(1, &Context{RequestID: i}) {
			t.Fatalf("offer %d failed", i)
		}
	}
	if b.Offer(1, &Context{RequestID: 6}) {
		t.Fatal("over-capacity offer succeeded")
	}
	var moved []*Entry
	collect := func(e *Entry) { moved = append(moved, e) }
	// Drain with no RQ space: nothing moves.
	if b.Drain(q, collect); len(moved) != 0 || b.Len() != 3 {
		t.Fatal("drain into full RQ moved entries")
	}
	// Free one slot: exactly one staged request moves, FIFO order.
	e := q.Dequeue(1, 0)
	q.Complete(e)
	b.Drain(q, collect)
	if len(moved) != 1 || moved[0].Ctx.RequestID != 3 {
		t.Fatalf("drain moved %v", moved)
	}
	if b.Len() != 2 {
		t.Fatalf("buffer len = %d", b.Len())
	}
}

// Property: under arbitrary interleavings of enqueue/dequeue/complete, the
// queue never exceeds capacity, never loses a request, and dequeues within a
// service are FCFS.
func TestRQInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		q := newRQ(8)
		var running []*Entry
		var last uint64
		enq, comp := 0, 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if q.Enqueue(int(op)%2, &Context{RequestID: uint64(enq)}) != nil {
					enq++
				}
			case 1:
				if e := q.Dequeue(-1, 0); e != nil {
					// FCFS within the whole queue for wildcard dequeues:
					// admitted requests carry increasing IDs.
					if e.Ctx.RequestID < last {
						return false
					}
					last = e.Ctx.RequestID
					running = append(running, e)
				}
			case 2:
				if len(running) > 0 {
					q.Complete(running[0])
					running = running[1:]
					comp++
				}
			}
			if q.Len() > q.Capacity() {
				return false
			}
		}
		// Conservation: enqueued = completed + still live.
		return enq == comp+q.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A cycling queue reuses the entries head-reclaim frees: once it has held
// its peak live count, enqueue/dequeue/complete allocate nothing, and a
// finished entry drops its context.
func TestEntryReuse(t *testing.T) {
	q := newRQ(4)
	ctx := &Context{RequestID: 1}
	cycle := func() {
		a := q.Enqueue(1, ctx)
		b := q.Enqueue(2, ctx)
		q.Complete(q.Dequeue(-1, 0))
		q.Complete(q.Dequeue(-1, 0))
		if a.Status != Finished || b.Ctx != nil {
			t.Fatalf("finished entries: %+v %+v", a, b)
		}
	}
	cycle()
	// AllocsPerRun makes one warm-up call beyond its 100 measured ones.
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady cycle allocates %v/op", allocs)
	}
	if q.Len() != 0 || q.free == nil || q.free.next == nil || q.free.next.next != nil {
		t.Fatalf("Len %d, want 0 live entries and 2 free ones", q.Len())
	}
}

// Turning partitioning on counts the entries already queued against their
// services' budgets, finished-but-unreclaimed ones excepted.
func TestSetPartitionRecountsLiveEntries(t *testing.T) {
	q := newRQ(8)
	head := q.Enqueue(1, &Context{})
	mid := q.Enqueue(1, &Context{})
	q.Enqueue(1, &Context{})
	q.Dequeue(1, 0) // head runs, blocking reclaim
	q.Dequeue(1, 0)
	q.Complete(mid) // finished behind the head
	q.SetPartition(map[int]int{1: 3})
	if q.Enqueue(1, &Context{}) == nil {
		t.Fatal("finished entry counted against the budget")
	}
	if q.Enqueue(1, &Context{}) != nil {
		t.Fatal("entries queued before SetPartition not counted")
	}
	q.Complete(head)
	if q.Enqueue(1, &Context{}) == nil {
		t.Fatal("completion did not release budget")
	}
	q.SetPartition(nil)
	if q.part != nil {
		t.Fatal("per-service counts kept without a partition")
	}
}

// liveSlot is the ring index of the i-th live entry, computed with modular
// indexing over the ring's current length, independent of the queue's own
// index arithmetic.
func liveSlot(q *RQ, i int) int { return (int(q.head) + i) % len(q.ring) }

// scanFind is the scan HasReady and Dequeue ran before the ready counter:
// the ready entry closest to the head for svc (svc < 0 matches any), read
// from the live ring with modular indexing. It is kept here, independent of
// the queue's own index arithmetic, as the reference for TestRQMatchesScan.
func scanFind(q *RQ, svc int) *Entry {
	for i := 0; i < q.Len(); i++ {
		e := q.ring[liveSlot(q, i)]
		if e.Status == Ready && (svc < 0 || e.ServiceID == svc) {
			return e
		}
	}
	return nil
}

// scanReady counts the ready entries of the live ring.
func scanReady(q *RQ) int {
	n := 0
	for i := 0; i < q.Len(); i++ {
		if q.ring[liveSlot(q, i)].Status == Ready {
			n++
		}
	}
	return n
}

// TestRQMatchesScan drives seeded random sequences of every operation that
// moves an entry between states (Enqueue with and without a partition,
// Dequeue for one service or any, ContextSwitch, Unblock, Complete, NIC
// Drain) at capacities 1, 3 and 64, and after every step checks the ready
// counter's answers (HasReady for each service and any, the count itself, and the
// entry Dequeue would pick) against scanFind and scanReady, and the ring's
// live slots (through slot and through modular indexing over the ring's
// current length) against a shadow FIFO of the live entries. It fails if a
// path was never reached: ring wrap, a partition rejection, an unblock, a
// drain, a per-service dequeue, and for the growable ring, growth all the
// way from the initial size to the capacity, growth while the live entries
// wrap, a Drain that grows the ring, and SetPartition on a grown ring.
func TestRQMatchesScan(t *testing.T) {
	const services = 4
	var cover struct {
		wrap, partReject, unblock, drained, svcDequeue        int
		grownFull, grewWrapped, drainGrew, partitionAfterGrow int
	}
	for _, capacity := range []int{1, 3, 64} {
		partitions := []map[int]int{nil, {0: 1}, {0: capacity / 2, 1: (capacity + 1) / 4}}
		for trial := int64(0); trial < 60; trial++ {
			rng := rand.New(rand.NewSource(trial))
			q := newRQ(capacity)
			initial := len(q.ring)
			nic := newNICBuffer(4)
			var shadow, running, blocked []*Entry
			var reqID uint64
			take := func(list *[]*Entry) *Entry {
				i := rng.Intn(len(*list))
				e := (*list)[i]
				*list = append((*list)[:i], (*list)[i+1:]...)
				return e
			}
			// Odd trials favour enqueues, so the 64-entry queue fills up
			// and its ring grows to the capacity.
			enqueueOps := 30
			if trial%2 == 1 {
				enqueueOps = 45
			}
			for step := 0; step < 400; step++ {
				where := fmt.Sprintf("capacity %d trial %d step %d", capacity, trial, step)
				size, head := len(q.ring), q.head
				switch op := rng.Intn(100 + enqueueOps - 30); {
				case op < 30 || op >= 100:
					reqID++
					svc := rng.Intn(services)
					spare := q.Len() < q.Capacity()
					if e := q.Enqueue(svc, &Context{RequestID: reqID}); e != nil {
						if e.Status != Ready || e.ServiceID != svc {
							t.Fatalf("%s: enqueued %+v", where, e)
						}
						shadow = append(shadow, e)
					} else {
						if spare {
							cover.partReject++
						}
						nic.Offer(svc, &Context{RequestID: reqID})
					}
				case op < 55:
					svc := rng.Intn(services+2) - 1 // -1 (any) through services (none queued)
					want := scanFind(q, svc)
					got := q.Dequeue(svc, step)
					if got != want {
						t.Fatalf("%s: Dequeue(%d) = %p, scan picks %p", where, svc, got, want)
					}
					if got != nil {
						if got.Status != Running || got.Ctx.Core != step || got.Ctx.StateSaved {
							t.Fatalf("%s: dequeued %+v ctx %+v", where, got, got.Ctx)
						}
						if svc >= 0 {
							cover.svcDequeue++
						}
						running = append(running, got)
					}
				case op < 65:
					if len(running) > 0 {
						e := take(&running)
						q.ContextSwitch(e, 256)
						blocked = append(blocked, e)
					}
				case op < 75:
					if len(blocked) > 0 {
						q.Unblock(take(&blocked))
						cover.unblock++
					}
				case op < 93:
					if len(running) > 0 {
						e := take(&running)
						q.Complete(e)
						for len(shadow) > 0 && shadow[0].Status == Finished {
							shadow = shadow[1:]
						}
					}
				case op < 98:
					nic.Drain(q, func(e *Entry) {
						shadow = append(shadow, e)
						cover.drained++
					})
					if len(q.ring) > size {
						cover.drainGrew++
					}
				default:
					p := partitions[rng.Intn(len(partitions))]
					q.SetPartition(p)
					if p != nil && len(q.ring) > initial {
						cover.partitionAfterGrow++
					}
				}
				if len(q.ring) < size || len(q.ring) > capacity {
					t.Fatalf("%s: ring of %d slots became %d (capacity %d)", where, size, len(q.ring), capacity)
				}
				if len(q.ring) > size {
					if head != 0 {
						cover.grewWrapped++
					}
					if len(q.ring) == capacity && initial < capacity {
						cover.grownFull++
					}
				}
				if q.Len() != len(shadow) {
					t.Fatalf("%s: Len %d, shadow holds %d live entries", where, q.Len(), len(shadow))
				}
				for i, e := range shadow {
					if got := q.ring[liveSlot(q, i)]; got != e || int(q.slot(int32(i))) != liveSlot(q, i) {
						t.Fatalf("%s: live slot %d holds %p at %d (slot says %d), want %p", where, i, got, liveSlot(q, i), q.slot(int32(i)), e)
					}
				}
				if int(q.head+q.count) > len(q.ring) {
					cover.wrap++
				}
				if got, want := int(q.ready), scanReady(q); got != want {
					t.Fatalf("%s: ready count %d, scan counts %d", where, got, want)
				}
				for svc := -1; svc <= services; svc++ {
					want := scanFind(q, svc)
					if got := q.HasReady(svc); got != (want != nil) {
						t.Fatalf("%s: HasReady(%d) = %v, scan finds %p", where, svc, got, want)
					}
					if got := q.find(svc); got != want {
						t.Fatalf("%s: Dequeue(%d) would pick %p, scan picks %p", where, svc, got, want)
					}
				}
			}
		}
	}
	if cover.wrap == 0 || cover.partReject == 0 || cover.unblock == 0 || cover.drained == 0 || cover.svcDequeue == 0 ||
		cover.grownFull == 0 || cover.grewWrapped == 0 || cover.drainGrew == 0 || cover.partitionAfterGrow == 0 {
		t.Fatalf("a queue path was never reached: %+v", cover)
	}
	t.Logf("paths reached: %+v", cover)
}

// TestNewQueuesIndependent: the queues of one NewQueues call carve their
// initial rings from one backing array, so each must stay inside its own
// part of it, both while it fits there and once it has grown out of it.
func TestNewQueuesIndependent(t *testing.T) {
	for _, capacity := range []int{2, 3 * initialRing} {
		qs := NewQueues(3, capacity)
		for i := range capacity {
			if qs[1].Enqueue(7, &Context{RequestID: uint64(i)}) == nil {
				t.Fatalf("capacity %d: queue 1 refused entry %d", capacity, i)
			}
		}
		if qs[1].Enqueue(7, &Context{}) != nil {
			t.Fatalf("capacity %d: queue 1 accepted an entry past its capacity", capacity)
		}
		if grown := len(qs[1].ring) > initialRing; grown != (capacity > initialRing) {
			t.Fatalf("capacity %d: queue 1's ring has %d slots", capacity, len(qs[1].ring))
		}
		for _, i := range []int{0, 2} {
			if qs[i].Len() != 0 || qs[i].HasReady(-1) {
				t.Fatalf("capacity %d: queue %d sees queue 1's entries", capacity, i)
			}
			// Fill the neighbour too: its entries must not land in queue
			// 1's ring, nor queue 1's in its.
			for k := range capacity {
				if qs[i].Enqueue(3, &Context{RequestID: uint64(100 + k)}) == nil {
					t.Fatalf("capacity %d: queue %d refused entry %d beside a full neighbour", capacity, i, k)
				}
			}
			if e := qs[i].Dequeue(-1, 0); e == nil || e.Ctx.RequestID != 100 {
				t.Fatalf("capacity %d: queue %d lost its head entry: %+v", capacity, i, e)
			}
		}
		for k := range capacity {
			e := qs[1].Dequeue(-1, 0)
			if e == nil || e.ServiceID != 7 || e.Ctx.RequestID != uint64(k) {
				t.Fatalf("capacity %d: queue 1 entry %d is %+v", capacity, k, e)
			}
		}
	}
}
