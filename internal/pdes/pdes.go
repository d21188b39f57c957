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
// Each shard is placed on a host: one sim.Engine and its mailbox. Shards
// added with distinct engines get a host each; shards added with the same
// engine share its host, and their events interleave in its one heap. Every
// placement runs the same sequential window loop — the fleet gives each
// server its own engine by default and puts every shard on one shared
// engine for its validation reference — and produces bit-identical results.
//
// Messages are plain values (Msg: a kind and a few scalar arguments), never
// closures, and one Handler the model registers at construction interprets
// them. Send appends a message straight to its destination host's inbox.
// Barrier delivery moves a host's due messages, in canonical order, to that
// host's FIFO and schedules one firing per message of a single event bound
// once per host; each firing pops the FIFO head and calls the handler.
// Popping the head is exact because every message delivered at a barrier
// is due by the window's end, so the window fires all of them, in the order
// they were scheduled; a barrier that finds the FIFO still holding messages
// (a shard stopped its engine mid-window) panics. Sending, delivering and
// firing a message therefore allocate nothing once the buffers are warm.
//
// Determinism is a hard contract, matching the rest of the repository:
// results are bit-identical for every placement of shards on engines.
// Entity randomness comes from sim.Streams bundles, not shared engine
// streams; message sequence numbers are assigned per sender in send order;
// and barrier delivery sorts each host's due messages by (time, source
// shard, sequence), a total order independent of the order they were sent
// in.
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
// the model, and the scalar aggregates are identical for every placement
// of shards on engines.
type Stats struct {
	// Shards is the number of shards coupled.
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
	// (it was "active"); skipped windows cost a shard nothing. Like
	// ShardEvents it is filled only when every shard has its own engine,
	// and nil otherwise: shards sharing an engine share one event heap, so
	// which of them ran is not meaningful.
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

// host is one engine and its message state: the undelivered inbox and the
// FIFO of delivered messages waiting to fire, shared by every shard placed
// on the engine.
type host struct {
	eng *sim.Engine
	// inbox holds messages not yet delivered; inboxMin caches the earliest
	// timestamp in it (maxTime when empty) so the per-round minimum scan is
	// O(1) per host.
	inbox    []message
	inboxMin sim.Time
	// fifo holds the messages delivered at the last barrier that have not
	// fired yet, in canonical order from head on.
	fifo []message
	head int
	// fire is the engine event every delivered message is scheduled as,
	// bound once: it pops the FIFO head and hands it to the handler.
	fire sim.Event
	// windows and events count the windows this host ran in and the events
	// it fired inside them.
	windows, events uint64
}

// newHost returns an empty host on eng whose firings call h.
func newHost(eng *sim.Engine, h Handler) *host {
	b := &host{eng: eng, inboxMin: maxTime}
	b.fire = func() {
		msg := b.fifo[b.head]
		b.head++
		if b.head == len(b.fifo) {
			b.fifo = b.fifo[:0]
			b.head = 0
		}
		h(int(msg.src), int(msg.dst), msg.m)
	}
	return b
}

// add puts a sent message in the inbox.
func (b *host) add(msg message) {
	b.inbox = append(b.inbox, msg)
	if msg.at < b.inboxMin {
		b.inboxMin = msg.at
	}
}

// deliver moves every inbox message with at <= limit to the FIFO in
// canonical order, schedules one firing per message, keeps the rest in the
// inbox and returns how many it delivered. The engine fires events in (at,
// scheduling order), so the firings pop the FIFO in the order it was
// sorted.
func (b *host) deliver(limit sim.Time) uint64 {
	kept := b.inbox[:0]
	b.inboxMin = maxTime
	for _, msg := range b.inbox {
		if msg.at <= limit {
			b.fifo = append(b.fifo, msg)
		} else {
			kept = append(kept, msg)
			b.inboxMin = min(b.inboxMin, msg.at)
		}
	}
	b.inbox = kept
	slices.SortFunc(b.fifo, canonicalOrder)
	for i := range b.fifo {
		b.eng.At(b.fifo[i].at, b.fire)
	}
	return uint64(len(b.fifo))
}

// checkFired is the barrier's guard on the FIFO invariant: every message
// delivered at a barrier is due by the window's end, so a window that ran
// to its limit fired all of them and the last firing emptied the FIFO.
// Messages left over mean the engine stopped early, and the next delivery
// would pair FIFO entries with the wrong firings.
func (b *host) checkFired() {
	if len(b.fifo) != 0 {
		b.unfired()
	}
}

// unfired is checkFired's failure path, kept out of line so the check
// inlines into the window loop.
//
//go:noinline
func (b *host) unfired() {
	panic(fmt.Sprintf("pdes: shard %d reached a barrier with %d delivered messages unfired — its engine stopped mid-window",
		b.fifo[b.head].dst, len(b.fifo)-b.head))
}

// nextActivity is the earliest thing this host could do: its engine's next
// event or its earliest undelivered message.
func (b *host) nextActivity() sim.Time {
	n := b.inboxMin
	if at, ok := b.eng.NextEventAt(); ok && at < n {
		n = at
	}
	return n
}

// shard is one partition of the simulation: the host it is placed on and
// its send counter.
type shard struct {
	host *host
	// seq numbers this shard's sends, giving same-timestamp messages from
	// one sender a deterministic relative order (and, as a side effect,
	// counting them for Stats).
	seq uint64
}

// Fabric couples shards placed on one or more engines and advances them
// through conservative windows. Create with NewFabric, add shards, wire the
// model, then Run.
type Fabric struct {
	lookahead sim.Time
	handler   Handler
	hosts     []*host
	shards    []shard
	// Self-observability accumulators.
	rounds       uint64
	delivered    uint64
	windowEvents uint64
	advanceSum   sim.Time
}

// NewFabric returns a fabric with the given lookahead (the minimum
// cross-shard latency; must be positive). h receives every message on the
// destination shard's engine.
func NewFabric(lookahead sim.Time, h Handler) *Fabric {
	if lookahead <= 0 {
		panic("pdes: lookahead must be positive — zero-latency coupling admits no conservative window")
	}
	return &Fabric{lookahead: lookahead, handler: h}
}

// AddShard registers the next shard on eng and returns its id. A new engine
// gets a host of its own; an engine already registered places the shard on
// that engine's host.
func (f *Fabric) AddShard(eng *sim.Engine) int {
	i := slices.IndexFunc(f.hosts, func(b *host) bool { return b.eng == eng })
	if i < 0 {
		i = len(f.hosts)
		f.hosts = append(f.hosts, newHost(eng, f.handler))
	}
	f.shards = append(f.shards, shard{host: f.hosts[i]})
	return len(f.shards) - 1
}

// Stats reports the fabric's self-observability counters accumulated so
// far. Safe to call between windows (from a Run post hook) and after Run;
// the per-shard slices are snapshots (safe to retain).
func (f *Fabric) Stats() Stats {
	st := Stats{
		Shards:            len(f.shards),
		Lookahead:         f.lookahead,
		Rounds:            f.rounds,
		MessagesDelivered: f.delivered,
		WindowEvents:      f.windowEvents,
		AdvanceSum:        f.advanceSum,
	}
	for _, s := range f.shards {
		st.MessagesSent += s.seq
	}
	// With one host per shard, host i is shard i's.
	if len(f.hosts) == len(f.shards) {
		st.ShardWindows = make([]uint64, len(f.hosts))
		st.ShardEvents = make([]uint64, len(f.hosts))
		for i, b := range f.hosts {
			st.ShardWindows[i] = b.windows
			st.ShardEvents[i] = b.events
		}
	}
	return st
}

// Send ships m to shard dst, where the handler receives it at virtual time
// at. It must be called from code executing on shard src, and at must
// respect the lookahead: at >= src's current time + Lookahead. Violations
// panic — they are model bugs that would let a shard receive an event in
// its past. The message goes straight to dst's host inbox: during a window
// at is at or after the window's limit, and every host has had its
// delivery for the window before any host runs.
func (f *Fabric) Send(src, dst int, at sim.Time, m Msg) {
	s := &f.shards[src]
	if now := s.host.eng.Now(); at < now+f.lookahead {
		panic(fmt.Sprintf("pdes: shard %d sends at %v < now %v + lookahead %v — causality violation",
			src, at, now, f.lookahead))
	}
	f.shards[dst].host.add(message{at: at, seq: s.seq, src: int32(src), dst: int32(dst), m: m})
	s.seq++
}

// Run drives every shard to horizon in conservative windows, then every
// engine clock lands exactly on horizon (like sim.Engine.RunUntil). post,
// when non-nil, runs after each window with all shards quiescent — the
// hook for cross-shard state snapshots (e.g. a load balancer's stale queue
// views).
//
// Barrier-safe membership change: because every shard has finished its
// window when post runs, post may schedule new events on any shard's
// engine at times >= barrier (eng.At(barrier+d, ...)) without violating the
// no-event-in-the-past invariant, and barrier times themselves are a
// deterministic function of the model alone — identical for every
// placement of shards on engines. This is the mechanism a model uses to
// change its own topology mid-run (e.g. an autoscaler activating a cold
// server): decide at the barrier, take effect at barrier + lag.
// TestPostHookScheduling pins the contract.
func (f *Fabric) Run(horizon sim.Time, post func(barrier sim.Time)) {
	for {
		m := maxTime
		for _, b := range f.hosts {
			if n := b.nextActivity(); n < m {
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
		// Deliver on every host before any host runs: a message sent during
		// the window can be due exactly at limit, and it must wait for the
		// next barrier whichever host it lands on.
		for _, b := range f.hosts {
			if b.inboxMin <= limit {
				f.delivered += b.deliver(limit)
			}
		}
		// Run the hosts with work this window. A host whose next event lies
		// beyond the window is skipped entirely; its clock catches up when
		// it next runs.
		for _, b := range f.hosts {
			if at, ok := b.eng.NextEventAt(); !ok || at > limit {
				continue
			}
			base := b.eng.Fired()
			b.eng.RunUntil(limit)
			b.checkFired()
			fired := b.eng.Fired() - base
			f.windowEvents += fired
			b.events += fired
			b.windows++
		}
		f.rounds++
		f.advanceSum += limit - m
		if post != nil {
			post(limit)
		}
	}
	for _, b := range f.hosts {
		b.eng.RunUntil(horizon)
	}
}
