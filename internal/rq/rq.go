// Package rq implements μManycore's hardware Request Queue (paper §4.3): a
// circular buffer of request entries with head/tail pointers, a Request
// Context Memory holding per-request state (inputs, destination, and — with
// the §4.4 hardware context-switch support — saved processor state), and the
// atomic Dequeue / Complete / ContextSwitch instruction semantics. The NIC
// overflow buffer and rejection path are modeled too.
//
// Like the hardware, which answers a core's Work flag in one operation, the
// queue keeps a count of its ready entries: HasReady(-1) reads it, and
// HasReady and Dequeue for a specific service scan only when some entry is
// ready. The ring wraps its indices with a compare and a subtract, never a
// division, so any capacity works at the same cost.
//
// A village holds only a few entries at the loads the paper evaluates, so a
// ring starts at initialRing slots and doubles, up to the configured
// capacity, only when it is full. Admission, Free and Len always use the
// configured capacity: growth changes where the entries live, never which
// requests the queue admits or the order it scans them in.
//
// The queue is a pure data structure; instruction *timing* (the ~tens of
// cycles a hardware dequeue costs vs thousands for software scheduling) is
// charged by the machine model in internal/machine.
package rq

import "fmt"

// Status of a request entry, per Fig 13.
type Status int

// Entry states.
const (
	Ready Status = iota // ready to run
	Running
	Blocked // waiting on an RPC/storage response
	Finished
)

func (s Status) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Finished:
		return "finished"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Context is a Request Context Memory entry: the request's input, where the
// result goes, and the saved process state for hardware context switching
// ("a few hundreds of bytes", §4.4).
type Context struct {
	// RequestID identifies the request across the machine.
	RequestID uint64
	// DestVillage / DestService say where the response is delivered.
	DestVillage int
	DestService int
	// SavedStateBytes is the size of the saved processor state; zero until
	// the first ContextSwitch.
	SavedStateBytes int
	// StateSaved reports whether processor state is currently saved here.
	StateSaved bool
	// Core is the core the request last ran on (-1 if never scheduled).
	Core int
	// UserData carries the machine model's per-request payload.
	UserData any
}

// Entry is one RQ slot. Its Status is read-only outside this package: the
// queue's ready count follows every transition its methods make.
type Entry struct {
	Status    Status
	ServiceID int
	Ctx       *Context
	// seq is the FCFS arrival order stamp.
	seq uint64
}

// initialRing is the slot count a ring starts with (or the capacity, when
// smaller).
const initialRing = 4

// RQ is the per-village hardware request queue.
type RQ struct {
	capacity int
	// ring holds the live entries from head, wrapping at len(ring); it
	// grows (see grow) until len(ring) == capacity.
	ring  []*Entry
	head  int // index of oldest live entry
	count int // live entries (not yet reclaimed)
	// ready counts the live entries in the Ready state. Only Enqueue,
	// Dequeue and Unblock move an entry into or out of Ready.
	ready   int
	nextSeq uint64
	// free holds reclaimed entries for Enqueue to reuse, so a queue
	// allocates only up to its peak live count.
	free []*Entry

	// Optional RQ_Map partitioning (§4.3 "more advanced design"): when set,
	// each service has a private entry budget, and perSvc counts each
	// service's unfinished entries. Both are nil without a partition.
	partition map[int]int
	perSvc    map[int]int

	// Statistics.
	Enqueued  uint64
	Rejected  uint64
	Completed uint64
}

// NewQueues builds n RQs of the given capacity (the paper uses 64 entries
// per village), one per village of a machine, with their initial rings
// carved from one backing array. A ring that outgrows its part of the slab
// moves to an array of its own.
func NewQueues(n, capacity int) []RQ {
	if capacity <= 0 {
		panic("rq: capacity must be positive")
	}
	size := min(capacity, initialRing)
	qs := make([]RQ, n)
	ring := make([]*Entry, n*size)
	for i := range qs {
		qs[i] = RQ{capacity: capacity, ring: ring[:size:size]}
		ring = ring[size:]
	}
	return qs
}

// Capacity returns the configured size.
func (q *RQ) Capacity() int { return q.capacity }

// Len returns the number of live (unreclaimed) entries.
func (q *RQ) Len() int { return q.count }

// Free returns remaining slots.
func (q *RQ) Free() int { return q.capacity - q.count }

// SetPartition enables RQ_Map mode: serviceID -> max entries. Services not
// listed share the remaining space; the entries already queued count
// against their services' budgets. Pass nil to disable.
func (q *RQ) SetPartition(p map[int]int) {
	if p == nil {
		q.partition, q.perSvc = nil, nil
		return
	}
	cp := make(map[int]int, len(p))
	total := 0
	for k, v := range p {
		cp[k] = v
		total += v
	}
	if total > q.capacity {
		panic(fmt.Sprintf("rq: partition total %d exceeds capacity %d", total, q.capacity))
	}
	q.partition = cp
	q.perSvc = make(map[int]int)
	for i := 0; i < q.count; i++ {
		if e := q.ring[q.slot(i)]; e.Status != Finished {
			q.perSvc[e.ServiceID]++
		}
	}
}

// Enqueue appends a ready entry for serviceID with the given context,
// returning the entry, or nil if the queue (or the service's partition) is
// full — the caller then spills to the NIC buffer.
func (q *RQ) Enqueue(serviceID int, ctx *Context) *Entry {
	if q.count >= q.capacity {
		q.Rejected++
		return nil
	}
	if q.partition != nil {
		if limit, ok := q.partition[serviceID]; ok && q.perSvc[serviceID] >= limit {
			q.Rejected++
			return nil
		}
	}
	if q.count == len(q.ring) {
		q.grow()
	}
	var e *Entry
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		e = new(Entry)
	}
	*e = Entry{Status: Ready, ServiceID: serviceID, Ctx: ctx, seq: q.nextSeq}
	q.nextSeq++
	q.ring[q.slot(q.count)] = e
	q.count++
	q.ready++
	if q.partition != nil {
		q.perSvc[serviceID]++
	}
	q.Enqueued++
	return e
}

// grow doubles a full ring, up to the capacity, copying the live entries
// out in order from the head, which moves to index 0. Enqueue calls it only
// below the capacity, so the ring is then shorter than the capacity.
func (q *RQ) grow() {
	ring := make([]*Entry, min(2*len(q.ring), q.capacity))
	n := copy(ring, q.ring[q.head:])
	copy(ring[n:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// slot maps the i-th live position from the head (0 <= i < len(ring)) to
// its ring index. head < len(ring) and i < len(ring), so one subtraction
// wraps.
func (q *RQ) slot(i int) int {
	j := q.head + i
	if j >= len(q.ring) {
		j -= len(q.ring)
	}
	return j
}

// find returns the ready entry closest to the head for serviceID (serviceID
// < 0 matches any service), or nil. It scans only when some entry is ready.
func (q *RQ) find(serviceID int) *Entry {
	if q.ready == 0 {
		return nil
	}
	for i, j := 0, q.head; i < q.count; i++ {
		if e := q.ring[j]; e.Status == Ready && (serviceID < 0 || e.ServiceID == serviceID) {
			return e
		}
		if j++; j == len(q.ring) {
			j = 0
		}
	}
	return nil
}

// HasReady reports whether a ready entry for serviceID exists (serviceID < 0
// matches any service) — the per-core Work flag. For any service it is a
// read of the ready count; for one service it scans the ring, and only when
// some entry is ready.
func (q *RQ) HasReady(serviceID int) bool {
	if serviceID < 0 {
		return q.ready > 0
	}
	return q.find(serviceID) != nil
}

// Dequeue implements the Dequeue instruction: atomically find the
// highest-priority (closest to head) ready entry matching serviceID
// (serviceID < 0 matches any), mark it running, and return it. Returns nil
// when no entry qualifies, at once when none is ready. Restoring saved
// state is signalled by clearing Ctx.StateSaved; the machine model charges
// the restore cost.
func (q *RQ) Dequeue(serviceID int, core int) *Entry {
	e := q.find(serviceID)
	if e == nil {
		return nil
	}
	e.Status = Running
	q.ready--
	if e.Ctx != nil {
		e.Ctx.Core = core
		e.Ctx.StateSaved = false
	}
	return e
}

// ContextSwitch implements the ContextSwitch instruction: the running entry
// blocks on an RPC, its processor state is saved into the Request Context
// Memory, and the core is freed.
func (q *RQ) ContextSwitch(e *Entry, stateBytes int) {
	if e.Status != Running {
		panic(fmt.Sprintf("rq: ContextSwitch on %v entry", e.Status))
	}
	e.Status = Blocked
	if e.Ctx != nil {
		e.Ctx.StateSaved = true
		e.Ctx.SavedStateBytes = stateBytes
	}
}

// Unblock marks a blocked entry ready (the NIC received its RPC response and
// deposited it in the context memory).
func (q *RQ) Unblock(e *Entry) {
	if e.Status != Blocked {
		panic(fmt.Sprintf("rq: Unblock on %v entry", e.Status))
	}
	e.Status = Ready
	q.ready++
}

// Complete implements the Complete instruction: mark the entry finished,
// dropping its context, and, if it is at the head, advance the head past
// finished entries, reclaiming their slots. A reclaimed entry is reused by a
// later Enqueue, so the caller must not keep it after Complete.
func (q *RQ) Complete(e *Entry) {
	if e.Status != Running {
		panic(fmt.Sprintf("rq: Complete on %v entry", e.Status))
	}
	e.Status = Finished
	e.Ctx = nil
	q.Completed++
	if q.partition != nil {
		q.perSvc[e.ServiceID]--
	}
	for q.count > 0 && q.ring[q.head].Status == Finished {
		q.free = append(q.free, q.ring[q.head])
		q.ring[q.head] = nil
		if q.head++; q.head == len(q.ring) {
			q.head = 0
		}
		q.count--
	}
}

// NICBuffer is the village NIC's overflow staging area: requests that find
// the RQ full wait here; beyond its capacity they are rejected (§4.3).
type NICBuffer struct {
	capacity int
	fifo     []pendingReq
	// moved is Drain's result buffer, reused by every call.
	moved []*Entry
	// Rejected counts drops.
	Rejected uint64
}

type pendingReq struct {
	serviceID int
	ctx       *Context
}

// NewNICBuffers builds n buffers of the given capacity in one slice, one
// per village of a machine. The paper does not size the buffer; the
// machine model defaults to 4× the RQ.
func NewNICBuffers(n, capacity int) []NICBuffer {
	if capacity < 0 {
		panic("rq: negative NIC buffer capacity")
	}
	bs := make([]NICBuffer, n)
	for i := range bs {
		bs[i].capacity = capacity
	}
	return bs
}

// Len returns the queued count.
func (b *NICBuffer) Len() int { return len(b.fifo) }

// Offer tries to stage a request, returning false (and counting a
// rejection) when full.
func (b *NICBuffer) Offer(serviceID int, ctx *Context) bool {
	if len(b.fifo) >= b.capacity {
		b.Rejected++
		return false
	}
	b.fifo = append(b.fifo, pendingReq{serviceID, ctx})
	return true
}

// Drain moves as many staged requests as fit into the RQ, in FIFO order,
// returning the entries created. The returned slice is valid until the next
// Drain.
func (b *NICBuffer) Drain(q *RQ) []*Entry {
	moved := b.moved[:0]
	for len(b.fifo) > 0 {
		p := b.fifo[0]
		e := q.Enqueue(p.serviceID, p.ctx)
		if e == nil {
			// Enqueue counted a rejection, but the request is merely still
			// staged; undo the stat.
			q.Rejected--
			break
		}
		moved = append(moved, e)
		b.fifo[0] = pendingReq{}
		b.fifo = b.fifo[1:]
	}
	b.moved = moved
	return moved
}
