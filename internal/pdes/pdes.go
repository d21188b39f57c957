// Package pdes implements conservative-lookahead parallel discrete-event
// simulation: a set of shards, each owning one sim.Engine, advance
// concurrently through synchronized time windows and exchange timestamped
// messages that are only delivered at window barriers.
//
// The synchronization rule is the classic conservative one. Every
// cross-shard interaction carries a minimum latency L (the lookahead; for a
// server fleet, half the inter-server RTT — one wire direction). A message
// sent at virtual time t therefore arrives no earlier than t+L. Each round,
// the coordinator computes
//
//	M = min over shards of (earliest pending event, earliest undelivered
//	    message timestamp)
//	T = min(M + L, horizon)
//
// and lets every shard run to T. Causality cannot be violated: the first
// event anywhere in the round executes at some t >= M, so any message it
// sends arrives at t+L >= M+L >= T — at or after the barrier the round ends
// on, where it is delivered before any shard advances past it. No shard
// ever receives an event in its past. Taking T from the global minimum also
// makes sparse phases (drain tails, idle gaps) cheap: windows jump straight
// to the next activity instead of ticking every L.
//
// Determinism is a hard contract, matching the rest of the repository:
// results are bit-identical across shard-worker counts. Shards share no
// state (each owns its engine; entity randomness comes from sim.Streams
// bundles, not shared engine streams), message sequence numbers are
// assigned per sender in send order, and barrier delivery sorts each
// shard's due messages by (time, source shard, sequence) — a total order
// independent of which worker produced them first. SingleEngine runs the
// identical window/mailbox semantics on one shared engine; it is the
// validation reference the sharded fabric is byte-compared against.
package pdes

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"umanycore/internal/sim"
)

// maxTime is the "no activity" sentinel: later than any real timestamp.
const maxTime = sim.Time(math.MaxInt64)

// Net is the coupling surface a simulation builds against: it can send
// timestamped cross-shard messages and drive all shards to a horizon. Both
// the sharded Fabric and the SingleEngine reference implement it, so the
// same model wiring runs — and must produce bit-identical results — on
// either.
type Net interface {
	// Send ships fn to shard dst for execution at virtual time at. It must
	// be called from code executing on shard src, and at must respect the
	// lookahead: at >= src's current time + Lookahead. Violations panic —
	// they are model bugs that would let a shard receive an event in its
	// past.
	Send(src, dst int, at sim.Time, fn func())
	// Run drives every shard to horizon in conservative windows. post, when
	// non-nil, runs after each window on the coordinator with all shards
	// quiescent — the hook for cross-shard state snapshots (e.g. a load
	// balancer's stale queue views).
	//
	// Barrier-safe membership change: because every shard has finished its
	// window when post runs, post may schedule new events on any shard's
	// engine at times >= barrier (eng.At(barrier+d, ...)) without violating
	// the no-event-in-the-past invariant, and barrier times themselves are a
	// deterministic function of the lookahead alone — identical for every
	// worker count and for the SingleEngine reference. This is the mechanism
	// a model uses to change its own topology mid-run (e.g. an autoscaler
	// activating a cold server): decide at the barrier, take effect at
	// barrier + lag. TestPostHookScheduling pins the contract.
	Run(horizon sim.Time, post func(barrier sim.Time))
	// Stats reports the fabric's self-observability counters accumulated so
	// far. Safe to call between windows (from a Run post hook) and after Run.
	Stats() Stats
}

// Stats is the fabric's self-observability: how the conservative-window
// machinery behaved during Run. Every field except the two wall-clock ones
// is a deterministic function of the model — identical across shard-worker
// counts and, for the scalar aggregates, identical between Fabric and the
// SingleEngine reference. The per-shard slices are nil on SingleEngine
// (logical shards share one heap; per-shard execution is not meaningful).
type Stats struct {
	// Shards is the number of (logical) shards coupled.
	Shards int
	// Lookahead is the conservative window bound L.
	Lookahead sim.Time
	// Rounds counts synchronization windows executed.
	Rounds uint64
	// MessagesSent counts cross-shard sends.
	MessagesSent uint64
	// MessagesDelivered counts messages handed to destination engines at
	// barriers (== MessagesSent once Run drains the mailboxes).
	MessagesDelivered uint64
	// WindowEvents counts engine events fired inside windows.
	WindowEvents uint64
	// AdvanceSum accumulates each window's virtual width (limit - M). With
	// Rounds and Lookahead it yields the lookahead utilization: how much of
	// the permitted L each window actually used.
	AdvanceSum sim.Time
	// ShardWindows[i] counts windows in which shard i had events to run
	// (it was "active"); skipped windows cost a shard nothing.
	ShardWindows []uint64
	// ShardEvents[i] counts events shard i fired inside windows.
	ShardEvents []uint64
	// BarrierWaitSeconds is coordinator wall time spent inside parallel
	// window execution — the barrier the slowest shard sets. Wall clock:
	// excluded from the determinism contract, 0 without a worker pool.
	BarrierWaitSeconds float64
	// WorkerBusySeconds is total wall time pool workers spent running
	// shards. Wall clock: excluded from the determinism contract, 0 without
	// a worker pool.
	WorkerBusySeconds float64
}

// EventsPerWindow is the mean number of events a window executed.
func (st *Stats) EventsPerWindow() float64 {
	if st.Rounds == 0 {
		return 0
	}
	return float64(st.WindowEvents) / float64(st.Rounds)
}

// LookaheadUtilization is the mean fraction of the permitted lookahead L
// that windows actually advanced — 1.0 means every window spanned the full
// L; lower values mean horizon clamping or sparse activity jumps.
func (st *Stats) LookaheadUtilization() float64 {
	if st.Rounds == 0 || st.Lookahead <= 0 {
		return 0
	}
	return float64(st.AdvanceSum) / (float64(st.Rounds) * float64(st.Lookahead))
}

// BusyFraction is the fraction of parallel-execution wall time that workers
// spent running shards, given the pool size: 1.0 means perfectly balanced
// windows, low values mean workers idling at barriers. 0 without a pool.
func (st *Stats) BusyFraction(workers int) float64 {
	if workers <= 0 || st.BarrierWaitSeconds <= 0 {
		return 0
	}
	return st.WorkerBusySeconds / (float64(workers) * st.BarrierWaitSeconds)
}

// message is one cross-shard event: fn runs on the destination shard at
// virtual time at. src and seq (per-source send order) complete the
// (at, src, seq) canonical delivery order.
type message struct {
	at  sim.Time
	src int32
	dst int32
	seq uint64
	fn  func()
}

// canonicalOrder compares messages by (at, src, seq) — the deterministic
// total order barrier delivery uses regardless of arrival order.
func canonicalOrder(a, b message) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.src != b.src {
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.seq, b.seq)
}

// deliverDue schedules every message in *inbox with at <= limit onto eng in
// canonical order and keeps the rest in *inbox, returning how many it
// delivered and the earliest kept timestamp (maxTime when none is kept).
// *due is the caller's scratch buffer, reused across barriers; neither it
// nor the inbox keeps a delivered message's fn alive afterwards.
func deliverDue(eng *sim.Engine, inbox, due *[]message, limit sim.Time) (n uint64, min sim.Time) {
	d := (*due)[:0]
	kept := (*inbox)[:0]
	min = maxTime
	for _, m := range *inbox {
		if m.at <= limit {
			d = append(d, m)
		} else {
			kept = append(kept, m)
			if m.at < min {
				min = m.at
			}
		}
	}
	clear((*inbox)[len(kept):])
	*inbox = kept
	slices.SortFunc(d, canonicalOrder)
	for _, m := range d {
		eng.At(m.at, m.fn)
	}
	clear(d)
	*due = d[:0]
	return uint64(len(d)), min
}

// shard is one partition of the simulation: an engine, an inbox of
// undelivered messages, and an outbox filled while the shard runs.
type shard struct {
	id  int
	eng *sim.Engine
	// inbox holds messages not yet delivered; inboxMin caches the earliest
	// timestamp in it (maxTime when empty) so the per-round minimum scan is
	// O(1) per shard.
	inbox    []message
	inboxMin sim.Time
	// due is deliver's reusable buffer of messages being delivered.
	due []message
	// out collects messages sent during the current window. Only the worker
	// running this shard touches it; the coordinator routes and clears it
	// between windows.
	out []message
	// seq numbers this shard's sends, giving same-timestamp messages from
	// one sender a deterministic relative order (and, as a side effect,
	// counting them for Stats).
	seq uint64
	// firedBase snapshots the engine's fired-event counter when a window
	// starts, so the coordinator can charge the delta to this shard.
	firedBase uint64
}

// nextActivity is the earliest thing this shard could do: its engine's next
// event or its earliest undelivered message.
func (s *shard) nextActivity() sim.Time {
	n := s.inboxMin
	if at, ok := s.eng.NextEventAt(); ok && at < n {
		n = at
	}
	return n
}

// deliver schedules every inbox message with at <= limit onto the engine in
// canonical (at, src, seq) order and retains the rest, returning how many
// it delivered.
func (s *shard) deliver(limit sim.Time) uint64 {
	n, min := deliverDue(s.eng, &s.inbox, &s.due, limit)
	s.inboxMin = min
	return n
}

// Fabric couples shards that each own a distinct engine and advances them
// concurrently on a worker pool. Create with NewFabric, add shards, wire
// the model, then Run.
type Fabric struct {
	lookahead sim.Time
	workers   int
	shards    []*shard
	rounds    uint64
	// Self-observability accumulators; the coordinator owns all of them
	// (workers report busy time through the pool's atomic, folded in after
	// each window), so no synchronization beyond the pool's is needed.
	delivered     uint64
	windowEvents  uint64
	advanceSum    sim.Time
	shardWindows  []uint64
	shardEvents   []uint64
	barrierWaitNS int64
	workerBusyNS  int64
}

// NewFabric returns a fabric with the given lookahead (the minimum
// cross-shard latency; must be positive) and worker count (values < 2 mean
// sequential window execution; results are identical for every value).
func NewFabric(lookahead sim.Time, workers int) *Fabric {
	if lookahead <= 0 {
		panic("pdes: lookahead must be positive — zero-latency coupling admits no conservative window")
	}
	return &Fabric{lookahead: lookahead, workers: workers}
}

// AddShard registers eng as the next shard and returns its id. Engines must
// be distinct — shards run concurrently.
func (f *Fabric) AddShard(eng *sim.Engine) int {
	for _, s := range f.shards {
		if s.eng == eng {
			panic("pdes: engine added to fabric twice; shards must own distinct engines")
		}
	}
	f.shards = append(f.shards, &shard{id: len(f.shards), eng: eng, inboxMin: maxTime})
	f.shardWindows = append(f.shardWindows, 0)
	f.shardEvents = append(f.shardEvents, 0)
	return len(f.shards) - 1
}

// Lookahead reports the fabric's minimum cross-shard latency.
func (f *Fabric) Lookahead() sim.Time { return f.lookahead }

// Rounds reports how many synchronization windows Run has executed.
func (f *Fabric) Rounds() uint64 { return f.rounds }

// Stats implements Net. The per-shard slices are snapshots (safe to retain).
func (f *Fabric) Stats() Stats {
	st := Stats{
		Shards:             len(f.shards),
		Lookahead:          f.lookahead,
		Rounds:             f.rounds,
		MessagesDelivered:  f.delivered,
		WindowEvents:       f.windowEvents,
		AdvanceSum:         f.advanceSum,
		ShardWindows:       append([]uint64(nil), f.shardWindows...),
		ShardEvents:        append([]uint64(nil), f.shardEvents...),
		BarrierWaitSeconds: float64(f.barrierWaitNS) / 1e9,
		WorkerBusySeconds:  float64(f.workerBusyNS) / 1e9,
	}
	for _, s := range f.shards {
		st.MessagesSent += s.seq
	}
	return st
}

// Send implements Net. Called from model code running on shard src.
func (f *Fabric) Send(src, dst int, at sim.Time, fn func()) {
	s := f.shards[src]
	if min := s.eng.Now() + f.lookahead; at < min {
		panic(fmt.Sprintf("pdes: shard %d sends at %v < now %v + lookahead %v — causality violation",
			src, at, s.eng.Now(), f.lookahead))
	}
	s.out = append(s.out, message{at: at, src: int32(src), dst: int32(dst), seq: s.seq, fn: fn})
	s.seq++
}

// Run implements Net: conservative windows to horizon, then every engine
// clock lands exactly on horizon (like sim.Engine.RunUntil).
func (f *Fabric) Run(horizon sim.Time, post func(barrier sim.Time)) {
	var pool *workerPool
	if f.workers > 1 && len(f.shards) > 1 {
		w := f.workers
		if w > len(f.shards) {
			w = len(f.shards)
		}
		pool = startPool(w)
		defer pool.stop()
	}
	active := make([]*shard, 0, len(f.shards))
	for {
		// Route outboxes into inboxes in shard order — part of the canonical
		// order (per-source seq is already send-ordered; the sort at
		// delivery does the rest). Routing opens the round so freshly sent
		// messages bound the very next window.
		for _, s := range f.shards {
			for _, msg := range s.out {
				d := f.shards[msg.dst]
				d.inbox = append(d.inbox, msg)
				if msg.at < d.inboxMin {
					d.inboxMin = msg.at
				}
			}
			s.out = s.out[:0]
		}
		m := maxTime
		for _, s := range f.shards {
			if n := s.nextActivity(); n < m {
				m = n
			}
		}
		if m > horizon {
			break
		}
		limit := m + f.lookahead
		if limit > horizon || limit < m {
			limit = horizon
		}
		// Deliver due messages, then collect the shards with work this
		// window. A shard whose next activity lies beyond the window is
		// skipped entirely; its clock catches up when it next runs.
		active = active[:0]
		for _, s := range f.shards {
			if s.inboxMin <= limit {
				f.delivered += s.deliver(limit)
			}
			if at, ok := s.eng.NextEventAt(); ok && at <= limit {
				active = append(active, s)
				s.firedBase = s.eng.Fired()
			}
		}
		if pool == nil || len(active) <= 1 {
			for _, s := range active {
				s.eng.RunUntil(limit)
			}
		} else {
			t0 := time.Now()
			busy0 := pool.busyNS.Load()
			pool.run(active, limit)
			f.barrierWaitNS += time.Since(t0).Nanoseconds()
			f.workerBusyNS += pool.busyNS.Load() - busy0
		}
		for _, s := range active {
			fired := s.eng.Fired() - s.firedBase
			f.windowEvents += fired
			f.shardEvents[s.id] += fired
			f.shardWindows[s.id]++
		}
		f.rounds++
		f.advanceSum += limit - m
		if post != nil {
			post(limit)
		}
	}
	for _, s := range f.shards {
		s.eng.RunUntil(horizon)
	}
}

// workerPool is a persistent pool of goroutines that execute one window's
// active shards. Shards share no state, so any work distribution yields the
// same result; the atomic index is only load balancing.
type workerPool struct {
	wake   []chan struct{}
	wg     sync.WaitGroup
	idx    atomic.Int64
	active []*shard
	limit  sim.Time
	// busyNS accumulates wall time workers spent inside RunUntil — the
	// numerator of the pool's busy fraction. Wall clock only; never feeds
	// back into the simulation.
	busyNS atomic.Int64
}

func startPool(n int) *workerPool {
	p := &workerPool{wake: make([]chan struct{}, n)}
	for i := range p.wake {
		ch := make(chan struct{}, 1)
		p.wake[i] = ch
		go func() {
			for range ch {
				t0 := time.Now()
				for {
					j := int(p.idx.Add(1)) - 1
					if j >= len(p.active) {
						break
					}
					p.active[j].eng.RunUntil(p.limit)
				}
				p.busyNS.Add(time.Since(t0).Nanoseconds())
				p.wg.Done()
			}
		}()
	}
	return p
}

// run executes one window: workers drain the active list, and the call
// returns only when every shard has reached limit.
func (p *workerPool) run(active []*shard, limit sim.Time) {
	p.active, p.limit = active, limit
	p.idx.Store(0)
	n := len(p.wake)
	if n > len(active) {
		n = len(active)
	}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		p.wake[i] <- struct{}{}
	}
	p.wg.Wait()
}

func (p *workerPool) stop() {
	for _, ch := range p.wake {
		close(ch)
	}
}

// SingleEngine runs the identical window/mailbox semantics on one shared
// engine: shards are logical (per-source sequence counters and the shared
// mailbox), events from all shards interleave in one heap, and messages are
// still held back until the barrier that covers them. It exists as the
// validation reference for Fabric — the sharded fleet is byte-compared
// against it — and as a debugging mode where a single event loop is easier
// to step through.
type SingleEngine struct {
	eng       *sim.Engine
	lookahead sim.Time
	seqs      []uint64
	inbox     []message
	inboxMin  sim.Time
	due       []message // deliver's reusable buffer
	rounds    uint64
	// Self-observability mirrors of Fabric's scalar aggregates — the same
	// windows, deliveries, and event counts by construction, so Stats()
	// matches the sharded fabric's deterministic fields exactly.
	delivered    uint64
	windowEvents uint64
	advanceSum   sim.Time
}

// NewSingleEngine returns the reference coupling over eng with nshards
// logical shards.
func NewSingleEngine(lookahead sim.Time, eng *sim.Engine, nshards int) *SingleEngine {
	if lookahead <= 0 {
		panic("pdes: lookahead must be positive — zero-latency coupling admits no conservative window")
	}
	return &SingleEngine{eng: eng, lookahead: lookahead, seqs: make([]uint64, nshards), inboxMin: maxTime}
}

// Rounds reports how many synchronization windows Run has executed.
func (se *SingleEngine) Rounds() uint64 { return se.rounds }

// Stats implements Net. Per-shard execution slices are nil: logical shards
// share one event heap, so "which shard ran this window" is not meaningful.
func (se *SingleEngine) Stats() Stats {
	st := Stats{
		Shards:            len(se.seqs),
		Lookahead:         se.lookahead,
		Rounds:            se.rounds,
		MessagesDelivered: se.delivered,
		WindowEvents:      se.windowEvents,
		AdvanceSum:        se.advanceSum,
	}
	for _, n := range se.seqs {
		st.MessagesSent += n
	}
	return st
}

// Send implements Net with the same causality guard as Fabric.
func (se *SingleEngine) Send(src, dst int, at sim.Time, fn func()) {
	if min := se.eng.Now() + se.lookahead; at < min {
		panic(fmt.Sprintf("pdes: shard %d sends at %v < now %v + lookahead %v — causality violation",
			src, at, se.eng.Now(), se.lookahead))
	}
	se.inbox = append(se.inbox, message{at: at, src: int32(src), dst: int32(dst), seq: se.seqs[src], fn: fn})
	se.seqs[src]++
	if at < se.inboxMin {
		se.inboxMin = at
	}
}

// Run implements Net: the same round structure as Fabric.Run — compute the
// bound, deliver due messages in canonical order, run the window, snapshot —
// with the one shared engine playing every shard.
func (se *SingleEngine) Run(horizon sim.Time, post func(barrier sim.Time)) {
	for {
		m := se.inboxMin
		if at, ok := se.eng.NextEventAt(); ok && at < m {
			m = at
		}
		if m > horizon {
			break
		}
		limit := m + se.lookahead
		if limit > horizon || limit < m {
			limit = horizon
		}
		se.delivered += se.deliver(limit)
		firedBase := se.eng.Fired()
		se.eng.RunUntil(limit)
		se.windowEvents += se.eng.Fired() - firedBase
		se.rounds++
		se.advanceSum += limit - m
		if post != nil {
			post(limit)
		}
	}
	se.eng.RunUntil(horizon)
}

// deliver mirrors shard.deliver on the shared mailbox: the global canonical
// sort keeps each destination's subsequence in (at, src, seq) order, which
// is all the per-engine semantics require.
func (se *SingleEngine) deliver(limit sim.Time) uint64 {
	n, min := deliverDue(se.eng, &se.inbox, &se.due, limit)
	se.inboxMin = min
	return n
}
