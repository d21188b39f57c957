package pdes

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"umanycore/internal/sim"
)

// --- canonical-order property test -----------------------------------------
//
// Satellite of the determinism contract: barrier delivery is a total order
// in (at, src, seq) no matter what order messages reached the inbox. The
// quick-check style mirrors the DeriveSeed avalanche tests: many random
// trials, each comparing a shuffled insertion against the canonical result.

func TestMailboxDeliveryTotalOrderUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		msgs := make([]message, n)
		// Small timestamp range forces heavy (at) ties so the (src, seq)
		// legs of the order actually get exercised. Each message's Token
		// names it, so the handler can log which one fired.
		for i := range msgs {
			msgs[i] = message{
				at:  sim.Time(1 + rng.Intn(4)),
				src: int32(rng.Intn(3)),
				m:   Msg{Token: int32(i)},
			}
		}
		// Per-source seq in send order, like Fabric.Send assigns them.
		seqs := map[int32]uint64{}
		for i := range msgs {
			msgs[i].seq = seqs[msgs[i].src]
			seqs[msgs[i].src]++
		}
		fire := func(insertion []int) []message {
			var log []message
			f, eng := newNet(3, 1, func(_, _ int, m Msg) { log = append(log, msgs[m.Token]) })
			for _, idx := range insertion {
				f.add(msgs[idx])
			}
			f.deliver(maxTime - 1)
			eng.Run()
			return log
		}
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		want := fire(identity)
		for k := 0; k < 4; k++ {
			perm := rng.Perm(n)
			got := fire(perm)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d: permuted insertion changed delivery order", trial)
			}
		}
		// And the order is the canonical sort, not merely stable.
		for i := 1; i < len(want); i++ {
			if canonicalOrder(want[i-1], want[i]) > 0 {
				t.Fatalf("trial %d: delivery order violates (at, src, seq) at %d", trial, i)
			}
		}
	}
}

// --- the typed message path ---------------------------------------------------

// newNet couples n shards with lookahead L and handler h on one engine and
// returns the fabric and the engine.
func newNet(n int, L sim.Time, h Handler) (*Fabric, *sim.Engine) {
	eng := sim.NewEngine(1)
	f := NewFabric(eng, L, h)
	for range n {
		f.AddShard()
	}
	return f, eng
}

func TestMessageFits64Bytes(t *testing.T) {
	if size := unsafe.Sizeof(message{}); size > 64 {
		t.Fatalf("message is %d bytes; the barrier sort moves it by value, keep it <= 64", size)
	}
}

// TestDeliverAllocationFree drives the whole typed path — send, barrier
// delivery and firing through the bound event — and checks that once warm
// it allocates nothing, fires in the canonical (at, src, seq) order with
// every payload field intact and under the destination shard's tag, and
// leaves no message behind in the inbox or the FIFO.
func TestDeliverAllocationFree(t *testing.T) {
	const L = 100
	payload := Msg{Time: 7, Link: 1<<40 | 3, Demand: 1.5, Service: 4, Kind: 2, Flag: true}
	type fired struct {
		src, dst int
		at       sim.Time
		m        Msg
	}
	var log []fired
	var eng *sim.Engine
	net, eng := newNet(3, L, func(src, dst int, m Msg) {
		if eng.Tag() != int32(dst) {
			t.Errorf("message for shard %d fired under tag %d", dst, eng.Tag())
		}
		log = append(log, fired{src, dst, eng.Now(), m})
	})
	round := func() {
		base := eng.Now() + L
		// Sent out of canonical order: a later timestamp first, then
		// same-timestamp messages from two sources interleaved.
		p := payload
		p.Token = 0
		net.Send(1, 2, base+2, p)
		net.Send(0, 2, base+1, Msg{Token: 1})
		net.Send(1, 2, base+1, Msg{Token: 2})
		net.Send(0, 2, base+1, Msg{Token: 3})
		net.Send(2, 0, base+1, Msg{Token: 4})
		net.Run(base+10*L, nil)
	}
	round()
	base := sim.Time(L)
	p := payload
	p.Token = 0
	want := []fired{
		{0, 2, base + 1, Msg{Token: 1}},
		{0, 2, base + 1, Msg{Token: 3}},
		{1, 2, base + 1, Msg{Token: 2}},
		{2, 0, base + 1, Msg{Token: 4}},
		{1, 2, base + 2, p},
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("fired %+v\nwant %+v", log, want)
	}
	log = make([]fired, 0, 1024)
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("the typed message path allocates %v/op", allocs)
	}
	if len(log) != 5*51 {
		t.Fatalf("fired %d messages, want %d", len(log), 5*51)
	}
	if len(net.inbox) != 0 || len(net.fifo) != 0 || net.head != 0 {
		t.Fatalf("%d undelivered and %d unfired messages after the run", len(net.inbox), len(net.fifo)-net.head)
	}
}

// TestStoppedWindowPanics: a shard that stops the engine while delivered
// messages are still waiting to fire breaks the FIFO invariant, and the
// barrier must say so rather than pair later firings with the wrong
// messages.
func TestStoppedWindowPanics(t *testing.T) {
	const L = 100
	var eng *sim.Engine
	net, eng := newNet(2, L, func(_, _ int, _ Msg) { eng.Stop() })
	net.Send(0, 1, L+1, Msg{})
	net.Send(0, 1, L+2, Msg{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a window that left delivered messages unfired did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "unfired") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	net.Run(10*L, nil)
}

// --- causality and construction guards --------------------------------------

// TestSendBelowLookaheadPanics: the causality guard refuses a message
// timestamped less than one lookahead after the engine's clock.
func TestSendBelowLookaheadPanics(t *testing.T) {
	f, _ := newNet(2, 100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below now+lookahead did not panic")
		}
	}()
	f.Send(0, 1, 99, Msg{})
}

func TestZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero lookahead did not panic")
		}
	}()
	NewFabric(sim.NewEngine(1), 0, nil)
}

// --- adaptive windows --------------------------------------------------------

// TestWindowsJumpSparsePhases: with activity every millisecond and a 1ns
// lookahead, a fixed-width scheme would need ~10^6 windows; the adaptive
// bound must take one window per activity cluster instead.
func TestWindowsJumpSparsePhases(t *testing.T) {
	f, eng := newNet(2, sim.Nanosecond, nil)
	ticks := 0
	for i := 1; i <= 10; i++ {
		at := sim.Time(i) * sim.Millisecond
		eng.At(at, func() { ticks++ })
	}
	f.Run(20*sim.Millisecond, nil)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if r := f.Stats().Rounds; r > 25 {
		t.Fatalf("rounds = %d; adaptive windows should jump sparse gaps", r)
	}
	if eng.Now() != 20*sim.Millisecond {
		t.Fatalf("engine did not land on horizon: %v", eng.Now())
	}
}

// --- the toy coupled model ---------------------------------------------------
//
// A toy coupled model exercising everything the fleet needs: per-node
// Streams randomness, self-scheduled local events, random cross-shard
// messages at random lookahead-respecting offsets, and an order-sensitive
// state hash that detects any delivery reordering. Each node also keeps
// its own count of the events it ran and the windows it ran them in, the
// ground truth for the fabric's per-shard statistics.

type toyNode struct {
	id  int
	n   int
	eng *sim.Engine
	rng *sim.Streams
	net *Fabric
	L   sim.Time
	// window points at the number of windows finished so far.
	window *uint64

	hash    uint64
	recv    int
	sent    int
	events  uint64
	windows uint64
	last    uint64 // 1 + the window the node last ran an event in
}

func mixHash(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	return h
}

// ran records one event of this node.
func (nd *toyNode) ran() {
	nd.events++
	if nd.last != *nd.window+1 {
		nd.last = *nd.window + 1
		nd.windows++
	}
}

func (nd *toyNode) step(activeUntil sim.Time) {
	nd.ran()
	now := nd.eng.Now()
	nd.hash = mixHash(nd.hash, uint64(now))
	if nd.n > 1 && nd.rng.Rand("send").Float64() < 0.5 {
		dst := nd.rng.Rand("peer").Intn(nd.n - 1)
		if dst >= nd.id {
			dst++
		}
		at := now + nd.L + sim.Time(nd.rng.Rand("lat").Int63n(int64(3*nd.L)))
		nd.sent++
		nd.net.Send(nd.id, dst, at, Msg{})
	}
	if now >= activeUntil {
		return
	}
	gap := 1 + sim.Time(nd.rng.Rand("gap").Int63n(int64(2*nd.L)))
	nd.eng.After(gap, func() { nd.step(activeUntil) })
}

func (nd *toyNode) receive(src int) {
	nd.ran()
	nd.recv++
	nd.hash = mixHash(nd.hash, uint64(nd.eng.Now())*31+uint64(src))
}

type toyState struct {
	Hash            uint64
	Recv, Sent      int
	Events, Windows uint64
}

// newToy couples n toy nodes with lookahead L on one engine and starts
// each one stepping, under its own tag, until activeUntil. The handler
// delivers every message to its destination node. window is the count of
// finished windows the nodes read; the caller's post hook advances it.
func newToy(n int, L sim.Time, seed int64, activeUntil sim.Time, window *uint64) (*Fabric, *sim.Engine, []*toyNode) {
	nodes := make([]*toyNode, n)
	net, eng := newNet(n, L, func(src, dst int, _ Msg) { nodes[dst].receive(src) })
	for i := range nodes {
		nd := &toyNode{id: i, n: n, eng: eng, net: net, L: L, window: window, rng: sim.NewStreams(sim.DeriveSeed(seed, int64(i)))}
		nodes[i] = nd
		eng.SetTag(int32(i))
		eng.At(sim.Time(1+i), func() { nd.step(activeUntil) })
	}
	return net, eng, nodes
}

// runToy drives n coupled nodes to horizon and returns every node's state
// and the fabric's statistics.
func runToy(t *testing.T, n int, seed int64) ([]toyState, Stats) {
	t.Helper()
	const L = 500 * sim.Nanosecond
	var window uint64
	net, _, nodes := newToy(n, L, seed, 40*sim.Microsecond, &window)
	net.Run(60*sim.Microsecond, func(sim.Time) { window++ })
	out := make([]toyState, n)
	for i, nd := range nodes {
		out[i] = toyState{Hash: nd.hash, Recv: nd.recv, Sent: nd.sent, Events: nd.events, Windows: nd.windows}
	}
	return out, net.Stats()
}

// TestFabricWorkerInvariance: a repeat run reproduces the first exactly,
// node states and fabric statistics alike.
func TestFabricWorkerInvariance(t *testing.T) {
	const n, seed = 6, 42
	want, wantSt := runToy(t, n, seed)
	sent := 0
	for _, s := range want {
		sent += s.Sent
	}
	if sent == 0 {
		t.Fatal("toy model sent no cross-shard messages; test is vacuous")
	}
	if got, st := runToy(t, n, seed); !reflect.DeepEqual(want, got) || !reflect.DeepEqual(wantSt, st) {
		t.Fatal("repeat run diverged — fabric is not deterministic")
	}
}

// TestFabricShardCountsMatchShardActivity checks the per-shard statistics
// the engine's owner tags produce against each toy node's own count of the
// events it ran (its steps, including the tagged setup event, and its
// message firings) and of the windows it ran them in.
func TestFabricShardCountsMatchShardActivity(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		nodes, st := runToy(t, n, 99)
		if len(st.ShardEvents) != n || len(st.ShardWindows) != n {
			t.Fatalf("%d shards: per-shard slices %v/%v", n, st.ShardWindows, st.ShardEvents)
		}
		var sum uint64
		for i, nd := range nodes {
			if st.ShardEvents[i] != nd.Events || st.ShardWindows[i] != nd.Windows {
				t.Fatalf("%d shards: shard %d counted %d events in %d windows, ran %d in %d",
					n, i, st.ShardEvents[i], st.ShardWindows[i], nd.Events, nd.Windows)
			}
			if nd.Windows == st.Rounds {
				t.Fatalf("%d shards: shard %d ran in every window; the window count is not tested", n, i)
			}
			sum += nd.Events
		}
		if sum != st.WindowEvents {
			t.Fatalf("%d shards: nodes ran %d events, fabric counted %d", n, sum, st.WindowEvents)
		}
	}
}

// TestPostHookScheduling pins the barrier-safe membership-change contract
// documented on Fabric.Run: the post hook may schedule events for any
// shard at times >= barrier, under the tag it sets, and those events fire
// exactly when scheduled, under that tag. This is the mechanism the fleet
// autoscaler uses to activate cold servers.
func TestPostHookScheduling(t *testing.T) {
	const L = 500 * sim.Nanosecond
	const lag = 3 * L
	type fired struct {
		Barrier sim.Time
		At      sim.Time
		Tag     int32
	}
	run := func() []fired {
		// The toy model's background traffic drives the barriers with real
		// cross-shard activity, not a synthetic tick.
		const n = 4
		var window uint64
		net, eng, _ := newToy(n, L, 7, 30*sim.Microsecond, &window)
		var log []fired
		var next sim.Time
		net.Run(40*sim.Microsecond, func(barrier sim.Time) {
			window++
			if barrier < next {
				return
			}
			next = barrier + 10*L
			// Membership change: decide at the barrier, take effect lag later
			// on a shard chosen deterministically from the barrier time.
			target := int32(barrier/L) % n
			b := barrier
			eng.SetTag(target)
			eng.At(barrier+lag, func() {
				log = append(log, fired{Barrier: b, At: eng.Now(), Tag: eng.Tag()})
			})
		})
		return log
	}
	want := run()
	if len(want) == 0 {
		t.Fatal("post hook never scheduled; test is vacuous")
	}
	tags := map[int32]bool{}
	for _, f := range want {
		if f.At != f.Barrier+lag {
			t.Fatalf("event scheduled at barrier %v fired at %v, want %v", f.Barrier, f.At, f.Barrier+lag)
		}
		if f.Tag != int32(f.Barrier/L)%4 {
			t.Fatalf("event scheduled at barrier %v for shard %d fired under tag %d", f.Barrier, int32(f.Barrier/L)%4, f.Tag)
		}
		tags[f.Tag] = true
	}
	if len(tags) < 2 {
		t.Fatalf("every activation went to one shard (%v); the tag check is vacuous", tags)
	}
	if got := run(); !reflect.DeepEqual(want, got) {
		t.Fatalf("activation schedule diverged on a repeat run:\nref %+v\ngot %+v", want, got)
	}
}

// TestMessagesNeverInPast plays ping-pong between two shards, each message
// carrying its timestamp as payload and the remaining count as its token,
// and asserts that every one fires at exactly its timestamp — the "no shard
// receives an event in its past" guarantee. Every hop is sent at now+L,
// exactly the limit of the window it is sent in, so it must wait for the
// next barrier: one window per hop.
func TestMessagesNeverInPast(t *testing.T) {
	const L = 500 * sim.Nanosecond
	checked := 0
	var eng *sim.Engine
	var net *Fabric
	ping := func(src int, count int32) {
		if count == 0 {
			return
		}
		at := eng.Now() + L
		net.Send(src, 1-src, at, Msg{Time: at, Token: count})
	}
	net, eng = newNet(2, L, func(_, dst int, m Msg) {
		if eng.Now() != m.Time {
			t.Errorf("message for %v delivered at %v", m.Time, eng.Now())
		}
		checked++
		ping(dst, m.Token-1)
	})
	eng.At(1, func() { ping(0, 50) })
	net.Run(sim.Millisecond, nil)
	if checked != 50 {
		t.Fatalf("delivered %d of 50 messages", checked)
	}
	if r := net.Stats().Rounds; r != 51 {
		t.Fatalf("%d windows, want 51 (the first event, then one per hop)", r)
	}
}
