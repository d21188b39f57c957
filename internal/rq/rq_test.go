package rq

import (
	"testing"
	"testing/quick"
)

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
	q := New(8)
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
	q := New(8)
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
	q := New(2)
	q.Enqueue(1, &Context{})
	q.Enqueue(1, &Context{})
	if q.Enqueue(1, &Context{}) != nil {
		t.Fatal("over-capacity enqueue succeeded")
	}
	if q.Rejected != 1 || q.Free() != 0 {
		t.Fatalf("rejected=%d free=%d", q.Rejected, q.Free())
	}
}

func TestCompleteAdvancesHead(t *testing.T) {
	q := New(4)
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
	if q.Free() != 3 {
		t.Fatalf("Free = %d", q.Free())
	}
	_ = c
	if q.Completed != 2 {
		t.Fatalf("Completed = %d", q.Completed)
	}
}

func TestRingWraparound(t *testing.T) {
	q := New(3)
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
	q := New(4)
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
	q := New(2)
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
	q := New(4)
	if q.HasReady(-1) {
		t.Fatal("empty queue has ready")
	}
	q.Enqueue(5, &Context{})
	if !q.HasReady(-1) || !q.HasReady(5) || q.HasReady(6) {
		t.Fatal("HasReady filters wrong")
	}
	if q.ReadyCount() != 1 {
		t.Fatalf("ReadyCount = %d", q.ReadyCount())
	}
}

func TestPartitionedRQ(t *testing.T) {
	q := New(8)
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
	q := New(4)
	mustPanic(t, "oversized partition", func() { q.SetPartition(map[int]int{1: 3, 2: 3}) })
}

func TestInvalidCapacityPanics(t *testing.T) {
	mustPanic(t, "zero capacity", func() { New(0) })
}

func TestNICBufferOfferDrain(t *testing.T) {
	q := New(2)
	b := NewNICBuffer(3)
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
	if b.Rejected != 1 {
		t.Fatalf("Rejected = %d", b.Rejected)
	}
	// Drain with no RQ space: nothing moves, and no spurious RQ rejections.
	rejBefore := q.Rejected
	if got := b.Drain(q); len(got) != 0 {
		t.Fatal("drain into full RQ moved entries")
	}
	if q.Rejected != rejBefore {
		t.Fatal("drain inflated RQ rejection stats")
	}
	// Free one slot: exactly one staged request moves, FIFO order.
	e := q.Dequeue(1, 0)
	q.Complete(e)
	moved := b.Drain(q)
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
		q := New(8)
		var running []*Entry
		var lastSeq uint64
		enq, comp := 0, 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if q.Enqueue(int(op)%2, &Context{RequestID: uint64(enq)}) != nil {
					enq++
				}
			case 1:
				if e := q.Dequeue(-1, 0); e != nil {
					// FCFS within the whole queue for wildcard dequeues.
					if e.seq < lastSeq {
						return false
					}
					lastSeq = e.seq
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
		return int(q.Enqueued) == enq && enq == comp+q.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A cycling queue reuses the entries head-reclaim frees: once it has held
// its peak live count, enqueue/dequeue/complete allocate nothing, and a
// finished entry drops its context.
func TestEntryReuse(t *testing.T) {
	q := New(4)
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
	if q.Len() != 0 || q.Enqueued != 204 || q.Completed != 204 {
		t.Fatalf("Len %d Enqueued %d Completed %d", q.Len(), q.Enqueued, q.Completed)
	}
}

// Turning partitioning on counts the entries already queued against their
// services' budgets, finished-but-unreclaimed ones excepted.
func TestSetPartitionRecountsLiveEntries(t *testing.T) {
	q := New(8)
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
	if q.perSvc != nil {
		t.Fatal("per-service counts kept without a partition")
	}
}
