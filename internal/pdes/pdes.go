// Package pdes implements conservative-lookahead parallel discrete-event
// simulation: a set of shards advance through synchronized time windows
// and exchange timestamped messages that are only delivered at window
// barriers.
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
// Every shard lives on one sim.Engine, and their events interleave in its
// one heap: windows run one after another, so a window is one peek at the
// heap and the inbox, one barrier delivery and one RunUntil. Shards share no
// state except through messages, so each shard sees the same events in the
// same order as it would on an engine of its own. Per-shard accounting
// rides on the engine's owner tags: shard i's events carry tag i (the model
// sets it for setup, delivery sets it for each message, and events
// scheduled from a callback inherit it), and the engine counts per tag the
// events fired and the RunUntil calls, one per window, in which any fired.
//
// Messages are plain values (Msg: a kind and a few scalar arguments), never
// closures, and one Handler the model registers at construction interprets
// them. Send appends a message to the fabric's inbox. Barrier delivery
// moves the due messages, in canonical order, to a FIFO and schedules one
// firing per message of a single event bound once; each firing pops the
// FIFO head and calls the handler.
// Popping the head is exact because every message delivered at a barrier
// is due by the window's end, and RunUntil fires every event up to its
// limit, so the window fires all of them, in the order they were scheduled,
// and the FIFO is empty at the next barrier. Sending, delivering and firing
// a message therefore allocate nothing once the buffers are warm.
//
// Determinism is a hard contract, matching the rest of the repository.
// Entity randomness comes from sim.Streams bundles, not shared engine
// streams; message sequence numbers are assigned per sender in send order;
// and barrier delivery sorts the due messages by (time, source shard,
// sequence), a total order independent of the order they were sent in.
package pdes

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"umanycore/internal/sim"
)

// maxTime is the "no activity" sentinel: later than any real timestamp.
const maxTime = sim.Time(math.MaxInt64)

// Stats is the fabric's self-observability: how the conservative-window
// machinery behaved during Run. Every field is a deterministic function of
// the model.
type Stats struct {
	// Shards is the number of shards coupled.
	Shards int
	// Lookahead is the conservative window bound L.
	Lookahead sim.Time
	// Rounds counts synchronization windows executed.
	Rounds uint64
	// MessagesSent counts cross-shard sends.
	MessagesSent uint64
	// MessagesDelivered counts messages handed to the engine at
	// barriers (== MessagesSent once Run drains the inbox).
	MessagesDelivered uint64
	// WindowEvents counts engine events fired inside windows.
	WindowEvents uint64
	// AdvanceSum accumulates each window's virtual width (limit - M). With
	// Rounds and Lookahead it yields the lookahead utilization: how much of
	// the permitted L each window actually used.
	AdvanceSum sim.Time
	// ShardWindows[i] counts windows in which shard i fired events (it was
	// "active"). Filled on every run from the engine's owner-tag counts.
	ShardWindows []uint64
	// ShardEvents[i] counts events shard i fired inside windows.
	ShardEvents []uint64
	// WorkerBusySeconds is always 0: windows run sequentially, with no
	// worker pool to be busy. The field stays because benchmark reports
	// still read it.
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

// Msg is the payload of one cross-shard message: plain values that the
// model's Handler interprets. Kind says what the message is; the other
// fields are its arguments, and each kind uses only those it needs. A Msg
// holds no pointers, so sending one allocates nothing and a mailbox gives
// the garbage collector nothing to scan.
type Msg struct {
	// Time is a virtual time the message carries, such as when a response
	// left its server; it is payload, not the delivery time.
	Time    sim.Time
	Link    uint64
	Demand  float64
	Token   int32
	Service int32
	Kind    uint8
	Flag    bool
}

// Handler receives every delivered message: it runs on shard dst at the
// message's delivery time, once per message, in canonical order.
type Handler func(src, dst int, m Msg)

// message is one cross-shard message in flight: m reaches shard dst's
// handler at virtual time at. src and seq (per-source send order) complete
// the (at, src, seq) canonical delivery order. It is 64 bytes, and the
// barrier sort moves it by value.
type message struct {
	at  sim.Time
	seq uint64
	src int32
	dst int32
	m   Msg
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

// Fabric couples shards that share one engine and advances them through
// conservative windows. Create with NewFabric, add shards, wire the model,
// then Run.
type Fabric struct {
	eng       *sim.Engine
	lookahead sim.Time
	// inbox holds messages not yet delivered; inboxMin caches the earliest
	// timestamp in it (maxTime when empty) so each window's minimum is O(1).
	inbox    []message
	inboxMin sim.Time
	// fifo holds the messages delivered at the last barrier that have not
	// fired yet, in canonical order from head on.
	fifo []message
	head int
	// fire is the engine event every delivered message is scheduled as,
	// bound once: it pops the FIFO head and hands it to the handler.
	fire sim.Event
	// sent[i] numbers shard i's sends, giving same-timestamp messages from
	// one sender a deterministic relative order (and, as a side effect,
	// counting them for Stats).
	sent []uint64
	// Self-observability accumulators.
	rounds       uint64
	delivered    uint64
	windowEvents uint64
	advanceSum   sim.Time
}

// NewFabric returns a fabric on eng with the given lookahead (the minimum
// cross-shard latency; must be positive). h receives every message, on the
// destination shard.
func NewFabric(eng *sim.Engine, lookahead sim.Time, h Handler) *Fabric {
	if lookahead <= 0 {
		panic("pdes: lookahead must be positive — zero-latency coupling admits no conservative window")
	}
	f := &Fabric{eng: eng, lookahead: lookahead, inboxMin: maxTime}
	f.fire = func() {
		msg := f.fifo[f.head]
		f.head++
		if f.head == len(f.fifo) {
			f.fifo = f.fifo[:0]
			f.head = 0
		}
		h(int(msg.src), int(msg.dst), msg.m)
	}
	return f
}

// AddShard registers the next shard and returns its id, which is also the
// owner tag of its events: the fabric counts the engine's events by tag,
// and the model sets the engine's tag to a shard's id while it schedules
// that shard's setup events.
func (f *Fabric) AddShard() int {
	f.sent = append(f.sent, 0)
	f.eng.CountTags(len(f.sent))
	return len(f.sent) - 1
}

// Stats reports the fabric's self-observability counters accumulated so
// far. Safe to call between windows (from a Run post hook) and after Run;
// the per-shard slices are snapshots (safe to retain).
func (f *Fabric) Stats() Stats {
	st := Stats{
		Shards:            len(f.sent),
		Lookahead:         f.lookahead,
		Rounds:            f.rounds,
		MessagesDelivered: f.delivered,
		WindowEvents:      f.windowEvents,
		AdvanceSum:        f.advanceSum,
		ShardWindows:      make([]uint64, len(f.sent)),
		ShardEvents:       make([]uint64, len(f.sent)),
	}
	for i, n := range f.sent {
		st.MessagesSent += n
		st.ShardEvents[i], st.ShardWindows[i] = f.eng.TagCounts(int32(i))
	}
	return st
}

// Send ships m to shard dst, where the handler receives it at virtual time
// at. It must be called from code executing on shard src, and at must
// respect the lookahead: at >= now + Lookahead. Violations panic — they are
// model bugs that would let a shard receive an event in its past. During a
// window at is at or after the window's limit, so the message waits in the
// inbox for the next barrier.
func (f *Fabric) Send(src, dst int, at sim.Time, m Msg) {
	if now := f.eng.Now(); at < now+f.lookahead {
		panic(fmt.Sprintf("pdes: shard %d sends at %v < now %v + lookahead %v — causality violation",
			src, at, now, f.lookahead))
	}
	if uint(dst) >= uint(len(f.sent)) {
		panic(fmt.Sprintf("pdes: shard %d sends to unknown shard %d", src, dst))
	}
	f.add(message{at: at, seq: f.sent[src], src: int32(src), dst: int32(dst), m: m})
	f.sent[src]++
}

// add puts a sent message in the inbox.
func (f *Fabric) add(msg message) {
	f.inbox = append(f.inbox, msg)
	f.inboxMin = min(f.inboxMin, msg.at)
}

// deliver moves every inbox message with at <= limit to the FIFO in
// canonical order, schedules one firing per message under its destination
// shard's tag, keeps the rest in the inbox and returns how many it
// delivered. The engine fires events in (at, scheduling order), so the
// firings pop the FIFO in the order it was sorted. The engine's tag is the
// caller's again on return.
func (f *Fabric) deliver(limit sim.Time) uint64 {
	kept := f.inbox[:0]
	f.inboxMin = maxTime
	for _, msg := range f.inbox {
		if msg.at <= limit {
			f.fifo = append(f.fifo, msg)
		} else {
			kept = append(kept, msg)
			f.inboxMin = min(f.inboxMin, msg.at)
		}
	}
	f.inbox = kept
	slices.SortFunc(f.fifo, canonicalOrder)
	caller := f.eng.Tag()
	for i := range f.fifo {
		f.eng.SetTag(f.fifo[i].dst)
		f.eng.At(f.fifo[i].at, f.fire)
	}
	f.eng.SetTag(caller)
	return uint64(len(f.fifo))
}

// nextActivity is the earliest thing any shard could do: the engine's next
// event or the earliest undelivered message.
func (f *Fabric) nextActivity() sim.Time {
	n := f.inboxMin
	if at, ok := f.eng.NextEventAt(); ok && at < n {
		n = at
	}
	return n
}

// Run drives every shard to horizon in conservative windows, then the
// engine clock lands exactly on horizon (like sim.Engine.RunUntil). post,
// when non-nil, runs after each window with all shards quiescent — the
// hook for cross-shard state snapshots (e.g. a load balancer's stale queue
// views).
//
// Barrier-safe membership change: because every shard has finished its
// window when post runs, post may schedule new events for any shard at
// times >= barrier (eng.At(barrier+d, ...)) without violating the
// no-event-in-the-past invariant; they carry the engine's tag as the post
// hook leaves it, and barrier times themselves are a deterministic
// function of the model alone. This is the mechanism a model uses to
// change its own topology mid-run (e.g. an autoscaler activating a cold
// server): decide at the barrier, take effect at barrier + lag.
// TestPostHookScheduling pins the contract.
func (f *Fabric) Run(horizon sim.Time, post func(barrier sim.Time)) {
	for {
		m := f.nextActivity()
		if m > horizon {
			break
		}
		limit := m + f.lookahead
		if limit > horizon || limit < m {
			limit = horizon
		}
		// Deliver before the window runs: a message sent during the window
		// can be due exactly at limit, and it must wait for the next barrier.
		if f.inboxMin <= limit {
			f.delivered += f.deliver(limit)
		}
		// One RunUntil per window, so the engine's per-tag call counts are
		// the shards' active windows.
		base := f.eng.Fired()
		f.eng.RunUntil(limit)
		f.windowEvents += f.eng.Fired() - base
		f.rounds++
		f.advanceSum += limit - m
		if post != nil {
			post(limit)
		}
	}
	f.eng.RunUntil(horizon)
}
