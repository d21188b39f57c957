package pdes

import (
	"math/rand"
	"reflect"
	"testing"

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
		// legs of the order actually get exercised.
		for i := range msgs {
			msgs[i] = message{
				at:  sim.Time(1 + rng.Intn(4)),
				src: int32(rng.Intn(3)),
			}
		}
		// Per-source seq in send order, like Fabric.Send assigns them.
		seqs := map[int32]uint64{}
		for i := range msgs {
			msgs[i].seq = seqs[msgs[i].src]
			seqs[msgs[i].src]++
		}
		fire := func(insertion []int) []message {
			s := &shard{eng: sim.NewEngine(0), inboxMin: maxTime}
			for _, idx := range insertion {
				m := msgs[idx]
				got := m // capture
				m.fn = func() { firedAppend(s.eng, &orderLog, got) }
				s.inbox = append(s.inbox, m)
				if m.at < s.inboxMin {
					s.inboxMin = m.at
				}
			}
			orderLog = orderLog[:0]
			s.deliver(maxTime - 1)
			s.eng.Run()
			out := make([]message, len(orderLog))
			copy(out, orderLog)
			return out
		}
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		want := fire(identity)
		for k := 0; k < 4; k++ {
			perm := rng.Perm(n)
			got := fire(perm)
			if !sameOrder(want, got) {
				t.Fatalf("trial %d: permuted insertion changed delivery order", trial)
			}
		}
		// And the order is the canonical sort, not merely stable.
		for i := 1; i < len(want); i++ {
			a, b := want[i-1], want[i]
			if a.at > b.at || (a.at == b.at && (a.src > b.src || (a.src == b.src && a.seq > b.seq))) {
				t.Fatalf("trial %d: delivery order violates (at, src, seq) at %d", trial, i)
			}
		}
	}
}

// orderLog records message firing order for the property test.
var orderLog []message

func firedAppend(_ *sim.Engine, log *[]message, m message) { *log = append(*log, m) }

func sameOrder(a, b []message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].src != b[i].src || a[i].seq != b[i].seq {
			return false
		}
	}
	return true
}

// --- causality and construction guards --------------------------------------

// TestDeliverAllocationFree: barrier delivery reuses its buffers, so once
// warm, delivering a barrier's out-of-order messages allocates nothing, and
// no delivered fn stays reachable from the shard's inbox or scratch buffer.
func TestDeliverAllocationFree(t *testing.T) {
	s := &shard{eng: sim.NewEngine(0), inboxMin: maxTime}
	var fired []int
	var fns [3]func()
	for i := range fns {
		fns[i] = func() { fired = append(fired, i) }
	}
	var base sim.Time
	round := func() {
		base += 10
		s.inbox = append(s.inbox,
			message{at: base + 2, src: 0, seq: 1, fn: fns[0]},
			message{at: base + 1, src: 1, seq: 0, fn: fns[1]},
			message{at: base + 1, src: 0, seq: 0, fn: fns[2]},
		)
		if n := s.deliver(base + 5); n != 3 {
			t.Fatalf("delivered %d of 3", n)
		}
		s.eng.RunUntil(base + 5)
	}
	round()
	if want := []int{2, 1, 0}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("delivery order %v, want %v", fired, want)
	}
	fired = make([]int, 0, 1024)
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("barrier delivery allocates %v/op", allocs)
	}
	for _, buf := range [][]message{s.inbox[:cap(s.inbox)], s.due[:cap(s.due)]} {
		for _, m := range buf {
			if m.fn != nil {
				t.Fatal("a delivered message's fn is still referenced")
			}
		}
	}
}

func TestSendBelowLookaheadPanics(t *testing.T) {
	f := NewFabric(100, 1)
	f.AddShard(sim.NewEngine(1))
	f.AddShard(sim.NewEngine(2))
	defer func() {
		if recover() == nil {
			t.Fatal("Send below now+lookahead did not panic")
		}
	}()
	f.Send(0, 1, 99, func() {})
}

func TestSingleEngineSendBelowLookaheadPanics(t *testing.T) {
	se := NewSingleEngine(100, sim.NewEngine(1), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Send below now+lookahead did not panic")
		}
	}()
	se.Send(0, 1, 50, func() {})
}

func TestZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero lookahead did not panic")
		}
	}()
	NewFabric(0, 1)
}

func TestDuplicateEnginePanics(t *testing.T) {
	f := NewFabric(1, 1)
	eng := sim.NewEngine(1)
	f.AddShard(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate engine did not panic")
		}
	}()
	f.AddShard(eng)
}

// --- adaptive windows --------------------------------------------------------

// TestWindowsJumpSparsePhases: with activity every millisecond and a 1ns
// lookahead, a fixed-width scheme would need ~10^6 windows; the adaptive
// bound must take one window per activity cluster instead.
func TestWindowsJumpSparsePhases(t *testing.T) {
	f := NewFabric(sim.Nanosecond, 1)
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
	if f.Rounds() > 25 {
		t.Fatalf("rounds = %d; adaptive windows should jump sparse gaps", f.Rounds())
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
	id    int
	n     int
	eng   *sim.Engine
	rng   *sim.Streams
	net   Net
	peers []*toyNode
	L     sim.Time

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
		src, peer := nd.id, nd.peers[dst]
		nd.sent++
		nd.net.Send(src, dst, at, func() { peer.receive(src) })
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

// runToy drives n coupled nodes to horizon. workers < 0 selects the
// SingleEngine reference; otherwise a Fabric with that worker count.
func runToy(t *testing.T, n, workers int, seed int64) []toyState {
	t.Helper()
	const L = 500 * sim.Nanosecond
	const activeUntil = 40 * sim.Microsecond
	const horizon = 60 * sim.Microsecond
	nodes := make([]*toyNode, n)
	var net Net
	var engs []*sim.Engine
	if workers < 0 {
		shared := sim.NewEngine(seed)
		net = NewSingleEngine(L, shared, n)
		for i := 0; i < n; i++ {
			engs = append(engs, shared)
		}
	} else {
		f := NewFabric(L, workers)
		for i := 0; i < n; i++ {
			eng := sim.NewEngine(sim.DeriveSeed(seed, int64(i)))
			f.AddShard(eng)
			engs = append(engs, eng)
		}
		net = f
	}
	for i := range nodes {
		nodes[i] = &toyNode{
			id: i, n: n, eng: engs[i], net: net, L: L,
			rng:   sim.NewStreams(sim.DeriveSeed(seed, int64(i))),
			peers: nodes,
		}
	}
	for _, nd := range nodes {
		nd := nd
		nd.eng.At(sim.Time(1+nd.id), func() { nd.step(activeUntil) })
	}
	net.Run(horizon, nil)
	out := make([]toyState, n)
	for i, nd := range nodes {
		out[i] = toyState{Hash: nd.hash, Recv: nd.recv, Sent: nd.sent, Now: nd.eng.Now()}
	}
	return out
}

func TestFabricWorkerInvariance(t *testing.T) {
	const n, seed = 6, 42
	want := runToy(t, n, 1, seed)
	sent := 0
	for _, s := range want {
		sent += s.Sent
	}
	if sent == 0 {
		t.Fatal("toy model sent no cross-shard messages; test is vacuous")
	}
	for _, w := range []int{2, 3, 8} {
		if got := runToy(t, n, w, seed); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged from sequential:\nwant %+v\ngot  %+v", w, want, got)
		}
	}
	if got := runToy(t, n, 1, seed); !reflect.DeepEqual(want, got) {
		t.Fatal("repeat run diverged — fabric is not deterministic")
	}
}

func TestFabricMatchesSingleEngineReference(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		want := runToy(t, n, -1, 99)
		got := runToy(t, n, 4, 99)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("n=%d: sharded fabric diverged from single-engine reference:\nref %+v\ngot %+v", n, want, got)
		}
	}
}

// TestPostHookScheduling pins the barrier-safe membership-change contract
// documented on Net.Run: the post hook may schedule events on any shard's
// engine at times >= barrier, those events fire exactly when scheduled, and
// because barrier times are mode-invariant the resulting activation schedule
// is identical across worker counts and the SingleEngine reference. This is
// the mechanism the fleet autoscaler uses to activate cold servers.
func TestPostHookScheduling(t *testing.T) {
	const L = 500 * sim.Nanosecond
	const lag = 3 * L
	type fired struct {
		Barrier sim.Time
		At      sim.Time
	}
	run := func(workers int) []fired {
		// Reuse the toy model for background traffic so barriers are driven
		// by real cross-shard activity, not a synthetic tick.
		const n, seed = 4, 7
		nodes := make([]*toyNode, n)
		var net Net
		var engs []*sim.Engine
		if workers < 0 {
			shared := sim.NewEngine(seed)
			net = NewSingleEngine(L, shared, n)
			for i := 0; i < n; i++ {
				engs = append(engs, shared)
			}
		} else {
			f := NewFabric(L, workers)
			for i := 0; i < n; i++ {
				eng := sim.NewEngine(sim.DeriveSeed(seed, int64(i)))
				f.AddShard(eng)
				engs = append(engs, eng)
			}
			net = f
		}
		for i := range nodes {
			nodes[i] = &toyNode{
				id: i, n: n, eng: engs[i], net: net, L: L,
				rng:   sim.NewStreams(sim.DeriveSeed(seed, int64(i))),
				peers: nodes,
			}
		}
		for _, nd := range nodes {
			nd := nd
			nd.eng.At(sim.Time(1+nd.id), func() { nd.step(30 * sim.Microsecond) })
		}
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
	want := run(-1)
	if len(want) == 0 {
		t.Fatal("post hook never scheduled; test is vacuous")
	}
	for _, f := range want {
		if f.At != f.Barrier+lag {
			t.Fatalf("event scheduled at barrier %v fired at %v, want %v", f.Barrier, f.At, f.Barrier+lag)
		}
	}
	for _, w := range []int{1, 2, 4} {
		if got := run(w); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d activation schedule diverged from reference:\nref %+v\ngot %+v", w, want, got)
		}
	}
}

// TestMessagesNeverInPast drives the toy model while asserting, via a
// wrapper net, that every delivered message executes at exactly its
// timestamp — the "no shard receives an event in its past" guarantee.
func TestMessagesNeverInPast(t *testing.T) {
	const L = 500 * sim.Nanosecond
	f := NewFabric(L, 2)
	engs := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(2)}
	f.AddShard(engs[0])
	f.AddShard(engs[1])
	checked := 0
	var ping func(src int, count int)
	ping = func(src, count int) {
		if count == 0 {
			return
		}
		dst := 1 - src
		at := engs[src].Now() + L
		f.Send(src, dst, at, func() {
			if engs[dst].Now() != at {
				t.Errorf("message for %v delivered at %v", at, engs[dst].Now())
			}
			checked++
			ping(dst, count-1)
		})
	}
	engs[0].At(1, func() { ping(0, 50) })
	f.Run(sim.Millisecond, nil)
	if checked != 50 {
		t.Fatalf("delivered %d of 50 messages", checked)
	}
}
