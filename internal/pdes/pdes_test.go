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
			b := newHost(sim.NewEngine(0), func(_, _ int, m Msg) { log = append(log, msgs[m.Token]) })
			for _, idx := range insertion {
				b.add(msgs[idx])
			}
			b.deliver(maxTime - 1)
			b.eng.Run()
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

// newNet couples n shards with lookahead L and handler h, placing shard i
// on engine i % engines: engines == n gives every shard its own engine,
// engines == 1 puts them all on one shared engine. It returns the fabric
// and each shard's engine.
func newNet(n, engines int, L sim.Time, seed int64, h Handler) (*Fabric, []*sim.Engine) {
	f := NewFabric(L, h)
	engs := make([]*sim.Engine, n)
	for i := range engs {
		if i < engines {
			engs[i] = sim.NewEngine(sim.DeriveSeed(seed, int64(i)))
		} else {
			engs[i] = engs[i%engines]
		}
		f.AddShard(engs[i])
	}
	return f, engs
}

func TestMessageFits64Bytes(t *testing.T) {
	if size := unsafe.Sizeof(message{}); size > 64 {
		t.Fatalf("message is %d bytes; the barrier sort moves it by value, keep it <= 64", size)
	}
}

// TestDeliverAllocationFree drives the whole typed path with per-shard and
// shared engines — send, barrier delivery and firing through the bound
// per-host event — and checks that once warm it allocates nothing, fires in
// the canonical (at, src, seq) order with every payload field intact, and
// leaves no message behind in any inbox or FIFO.
func TestDeliverAllocationFree(t *testing.T) {
	const L = 100
	payload := Msg{Time: 7, Link: 1<<40 | 3, Demand: 1.5, Service: 4, Kind: 2, Flag: true}
	type fired struct {
		src, dst int
		at       sim.Time
		m        Msg
	}
	for _, engines := range []int{3, 1} {
		var log []fired
		var engs []*sim.Engine
		net, engs := newNet(3, engines, L, 1, func(src, dst int, m Msg) {
			log = append(log, fired{src, dst, engs[dst].Now(), m})
		})
		round := func() {
			base := engs[0].Now() + L
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
		// Canonical order per destination engine: (at, src, seq).
		want := []fired{
			{0, 2, base + 1, Msg{Token: 1}},
			{0, 2, base + 1, Msg{Token: 3}},
			{1, 2, base + 1, Msg{Token: 2}},
			{2, 0, base + 1, Msg{Token: 4}},
			{1, 2, base + 2, p},
		}
		if engines > 1 {
			// Each shard fires on its own engine, and the window runs shard
			// 0 before shard 2.
			want = []fired{want[3], want[0], want[1], want[2], want[4]}
		}
		if !reflect.DeepEqual(log, want) {
			t.Fatalf("engines=%d: fired %+v\nwant %+v", engines, log, want)
		}
		log = make([]fired, 0, 1024)
		if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
			t.Fatalf("engines=%d: the typed message path allocates %v/op", engines, allocs)
		}
		if len(log) != 5*51 {
			t.Fatalf("engines=%d: fired %d messages, want %d", engines, len(log), 5*51)
		}
		for i, b := range net.hosts {
			if len(b.inbox) != 0 || len(b.fifo) != 0 || b.head != 0 {
				t.Fatalf("engines=%d: host %d holds %d undelivered and %d unfired messages after the run",
					engines, i, len(b.inbox), len(b.fifo)-b.head)
			}
		}
	}
}

// TestStoppedWindowPanics: a shard that stops its engine while delivered
// messages are still waiting to fire breaks the FIFO invariant, and the
// barrier must say so rather than pair later firings with the wrong
// messages.
func TestStoppedWindowPanics(t *testing.T) {
	const L = 100
	for _, engines := range []int{2, 1} {
		func() {
			var engs []*sim.Engine
			net, engs := newNet(2, engines, L, 1, func(_, dst int, _ Msg) { engs[dst].Stop() })
			net.Send(0, 1, L+1, Msg{})
			net.Send(0, 1, L+2, Msg{})
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("engines=%d: a window that left delivered messages unfired did not panic", engines)
				}
				if !strings.Contains(fmt.Sprint(r), "unfired") {
					t.Fatalf("engines=%d: unexpected panic %v", engines, r)
				}
			}()
			net.Run(10*L, nil)
		}()
	}
}

// --- causality and construction guards --------------------------------------

// TestSendBelowLookaheadPanics: the causality guard holds when the sender
// and the destination each have an engine of their own.
func TestSendBelowLookaheadPanics(t *testing.T) {
	f, _ := newNet(2, 2, 100, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below now+lookahead did not panic")
		}
	}()
	f.Send(0, 1, 99, Msg{})
}

// TestSingleEngineSendBelowLookaheadPanics: the same guard holds when every
// shard shares one engine, the placement a single-threaded fleet uses.
func TestSingleEngineSendBelowLookaheadPanics(t *testing.T) {
	f, _ := newNet(2, 1, 100, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below now+lookahead did not panic")
		}
	}()
	f.Send(0, 1, 50, Msg{})
}

func TestZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero lookahead did not panic")
		}
	}()
	NewFabric(0, nil)
}

// --- adaptive windows --------------------------------------------------------

// TestWindowsJumpSparsePhases: with activity every millisecond and a 1ns
// lookahead, a fixed-width scheme would need ~10^6 windows; the adaptive
// bound must take one window per activity cluster instead.
func TestWindowsJumpSparsePhases(t *testing.T) {
	f := NewFabric(sim.Nanosecond, nil)
	e0 := sim.NewEngine(1)
	e1 := sim.NewEngine(2)
	f.AddShard(e0)
	f.AddShard(e1)
	ticks := 0
	for i := 1; i <= 10; i++ {
		at := sim.Time(i) * sim.Millisecond
		e0.At(at, func() { ticks++ })
	}
	f.Run(20*sim.Millisecond, nil)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if r := f.Stats().Rounds; r > 25 {
		t.Fatalf("rounds = %d; adaptive windows should jump sparse gaps", r)
	}
	if e0.Now() != 20*sim.Millisecond || e1.Now() != 20*sim.Millisecond {
		t.Fatalf("engines did not land on horizon: %v, %v", e0.Now(), e1.Now())
	}
}

// --- cross-mode / cross-worker equivalence -----------------------------------
//
// A toy coupled model exercising everything the fleet needs: per-node
// Streams randomness, self-scheduled local events, random cross-shard
// messages at random lookahead-respecting offsets, and an order-sensitive
// state hash that detects any delivery reordering.

type toyNode struct {
	id  int
	n   int
	eng *sim.Engine
	rng *sim.Streams
	net *Fabric
	L   sim.Time

	hash uint64
	recv int
	sent int
}

func mixHash(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	return h
}

func (nd *toyNode) step(activeUntil sim.Time) {
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
	nd.recv++
	nd.hash = mixHash(nd.hash, uint64(nd.eng.Now())*31+uint64(src))
}

type toyState struct {
	Hash       uint64
	Recv, Sent int
	Now        sim.Time
}

// newToy couples n toy nodes with lookahead L (see newNet for engines) and
// starts each one stepping until activeUntil. The handler delivers every
// message to its destination node.
func newToy(n, engines int, L sim.Time, seed int64, activeUntil sim.Time) (*Fabric, []*sim.Engine, []*toyNode) {
	nodes := make([]*toyNode, n)
	net, engs := newNet(n, engines, L, seed, func(src, dst int, _ Msg) { nodes[dst].receive(src) })
	for i := range nodes {
		nd := &toyNode{id: i, n: n, eng: engs[i], net: net, L: L, rng: sim.NewStreams(sim.DeriveSeed(seed, int64(i)))}
		nodes[i] = nd
		nd.eng.At(sim.Time(1+i), func() { nd.step(activeUntil) })
	}
	return net, engs, nodes
}

// runToy drives n coupled nodes, placed on the given number of engines, to
// horizon and returns every node's state and the fabric's statistics.
func runToy(t *testing.T, n, engines int, seed int64) ([]toyState, Stats) {
	t.Helper()
	const L = 500 * sim.Nanosecond
	net, _, nodes := newToy(n, engines, L, seed, 40*sim.Microsecond)
	net.Run(60*sim.Microsecond, nil)
	out := make([]toyState, n)
	for i, nd := range nodes {
		out[i] = toyState{Hash: nd.hash, Recv: nd.recv, Sent: nd.sent, Now: nd.eng.Now()}
	}
	return out, net.Stats()
}

// TestFabricWorkerInvariance: a repeat run reproduces the first exactly.
func TestFabricWorkerInvariance(t *testing.T) {
	const n, seed = 6, 42
	want, _ := runToy(t, n, n, seed)
	sent := 0
	for _, s := range want {
		sent += s.Sent
	}
	if sent == 0 {
		t.Fatal("toy model sent no cross-shard messages; test is vacuous")
	}
	if got, _ := runToy(t, n, n, seed); !reflect.DeepEqual(want, got) {
		t.Fatal("repeat run diverged — fabric is not deterministic")
	}
}

// TestFabricMatchesSingleEngineReference byte-compares placements: every
// shard on its own engine and mixed groupings against every shard on one
// shared engine, the reference. The scalar statistics must agree too; the
// per-shard slices exist only with one engine per shard.
func TestFabricMatchesSingleEngineReference(t *testing.T) {
	for _, tc := range []struct{ n, engines int }{{2, 2}, {3, 3}, {6, 6}, {6, 2}, {6, 3}} {
		want, refSt := runToy(t, tc.n, 1, 99)
		got, st := runToy(t, tc.n, tc.engines, 99)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%d shards on %d engines diverged from the single-engine reference:\nref %+v\ngot %+v", tc.n, tc.engines, want, got)
		}
		if refSt.ShardWindows != nil || refSt.ShardEvents != nil {
			t.Fatalf("shared engine reports per-shard slices: %+v", refSt)
		}
		perShard := tc.engines == tc.n
		if (st.ShardEvents != nil) != perShard || (st.ShardWindows != nil) != perShard {
			t.Fatalf("%d shards on %d engines: per-shard slices %v/%v, want them only with one engine per shard",
				tc.n, tc.engines, st.ShardWindows, st.ShardEvents)
		}
		st.ShardWindows, st.ShardEvents = nil, nil
		if !reflect.DeepEqual(st, refSt) {
			t.Fatalf("%d shards on %d engines: statistics diverged:\nref %+v\ngot %+v", tc.n, tc.engines, refSt, st)
		}
	}
}

// TestPostHookScheduling pins the barrier-safe membership-change contract
// documented on Fabric.Run: the post hook may schedule events on any
// shard's engine at times >= barrier, those events fire exactly when
// scheduled, and because barrier times do not depend on placement the
// resulting activation schedule is identical for per-shard, mixed and
// shared engines. This is the mechanism the fleet autoscaler uses to
// activate cold servers.
func TestPostHookScheduling(t *testing.T) {
	const L = 500 * sim.Nanosecond
	const lag = 3 * L
	type fired struct {
		Barrier sim.Time
		At      sim.Time
	}
	run := func(engines int) []fired {
		// The toy model's background traffic drives the barriers with real
		// cross-shard activity, not a synthetic tick.
		const n = 4
		net, engs, _ := newToy(n, engines, L, 7, 30*sim.Microsecond)
		var log []fired
		var next sim.Time
		net.Run(40*sim.Microsecond, func(barrier sim.Time) {
			if barrier < next {
				return
			}
			next = barrier + 10*L
			// Membership change: decide at the barrier, take effect lag later
			// on a shard chosen deterministically from the barrier time.
			target := engs[int(barrier/L)%n]
			b := barrier
			target.At(barrier+lag, func() {
				log = append(log, fired{Barrier: b, At: target.Now()})
			})
		})
		return log
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("post hook never scheduled; test is vacuous")
	}
	for _, f := range want {
		if f.At != f.Barrier+lag {
			t.Fatalf("event scheduled at barrier %v fired at %v, want %v", f.Barrier, f.At, f.Barrier+lag)
		}
	}
	for _, engines := range []int{2, 4} {
		if got := run(engines); !reflect.DeepEqual(want, got) {
			t.Fatalf("engines=%d activation schedule diverged from reference:\nref %+v\ngot %+v", engines, want, got)
		}
	}
}

// TestMessagesNeverInPast plays ping-pong between two shards, each message
// carrying its timestamp as payload and the remaining count as its token,
// and asserts that every one fires at exactly its timestamp — the "no shard
// receives an event in its past" guarantee. Every hop is sent at now+L,
// exactly the limit of the window it is sent in, so it must wait for the
// next barrier: one window per hop on separate engines as on a shared one.
func TestMessagesNeverInPast(t *testing.T) {
	const L = 500 * sim.Nanosecond
	for _, engines := range []int{2, 1} {
		checked := 0
		var engs []*sim.Engine
		var net *Fabric
		ping := func(src int, count int32) {
			if count == 0 {
				return
			}
			at := engs[src].Now() + L
			net.Send(src, 1-src, at, Msg{Time: at, Token: count})
		}
		net, engs = newNet(2, engines, L, 1, func(_, dst int, m Msg) {
			if engs[dst].Now() != m.Time {
				t.Errorf("engines=%d: message for %v delivered at %v", engines, m.Time, engs[dst].Now())
			}
			checked++
			ping(dst, m.Token-1)
		})
		engs[0].At(1, func() { ping(0, 50) })
		net.Run(sim.Millisecond, nil)
		if checked != 50 {
			t.Fatalf("engines=%d: delivered %d of 50 messages", engines, checked)
		}
		if r := net.Stats().Rounds; r != 51 {
			t.Fatalf("engines=%d: %d windows, want 51 (the first event, then one per hop)", engines, r)
		}
	}
}
