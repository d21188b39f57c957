package machine

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"umanycore/internal/sim"
)

// The invocation lifecycle contract: every invocation a machine allocates
// returns to its free list when its life ends — after complete, or after
// reject for roots, local children and peer-served children — so once a run
// has fully drained, the free list holds every object ever allocated, once,
// with nothing but its bound events left set. A missed return path leaks an
// object here; a double return shows up as a duplicate. The same holds for
// the machine's other recycled state: root-completion records, and the
// remote-call table's slots once every peer has answered.

// burstArrivals schedules bursts of size roots every gap, starting at gap,
// each through submit.
func burstArrivals(eng *sim.Engine, bursts, size int, gap sim.Time, submit func()) {
	for b := 1; b <= bursts; b++ {
		eng.At(sim.Time(b)*gap, func() {
			for i := 0; i < size; i++ {
				submit()
			}
		})
	}
}

// checkConserved fails unless every invocation m ever allocated is back on
// its free list exactly once, zeroed but for its bound events.
func checkConserved(t *testing.T, name string, m *Machine) {
	t.Helper()
	if m.invAllocs == 0 {
		t.Fatalf("%s: no invocations allocated", name)
	}
	if got := len(m.invFree); got != m.invAllocs {
		t.Fatalf("%s: %d of %d allocated invocations on the free list after drain", name, got, m.invAllocs)
	}
	seen := make(map[*invocation]bool, len(m.invFree))
	for _, inv := range m.invFree {
		if seen[inv] {
			t.Fatalf("%s: invocation on the free list twice", name)
		}
		seen[inv] = true
		if inv.enqueueFn == nil {
			t.Fatalf("%s: pooled invocation lost its arrival event", name)
		}
		stripped := *inv
		stripped.enqueueFn, stripped.segmentEndFn, stripped.releaseFn, stripped.resolveChildFn, stripped.swqReadyFn = nil, nil, nil, nil, nil
		if !reflect.ValueOf(stripped).IsZero() {
			t.Fatalf("%s: pooled invocation not zeroed: %+v", name, stripped)
		}
	}
	if got := len(m.doneFree); got != m.doneAllocs {
		t.Fatalf("%s: %d of %d root-completion records on the free list after drain", name, got, m.doneAllocs)
	}
	seenDone := make(map[*rootDone]bool, len(m.doneFree))
	for _, d := range m.doneFree {
		stripped := *d
		stripped.fire = nil
		if seenDone[d] || d.fire == nil || !reflect.ValueOf(stripped).IsZero() {
			t.Fatalf("%s: root-completion record duplicated, unbound or not zeroed: %+v", name, stripped)
		}
		seenDone[d] = true
	}
	if got := len(m.callFree); got != len(m.calls) {
		t.Fatalf("%s: %d of %d remote-call tokens free after drain", name, got, len(m.calls))
	}
	seenCall := make(map[int32]bool, len(m.callFree))
	for _, tok := range m.callFree {
		if seenCall[tok] || m.calls[tok] != (remoteCall{}) {
			t.Fatalf("%s: remote-call token %d freed twice or still holding its call", name, tok)
		}
		seenCall[tok] = true
	}
}

// tinyRQ leaves each village two RQ slots and no NIC buffer, and keeps each
// request tree in its root's village: a blocked root still holds its slot,
// so bursts reject roots and children alike. (Validate refuses a NIC buffer
// here: a child staged behind its own blocked parent would wait forever.)
func tinyRQ(cfg Config) Config {
	cfg.RQCapacity = 2
	cfg.NICBufCapacity = 0
	cfg.TreeAffinity = true
	return cfg
}

// nicBufRQ leaves each village one RQ slot and a small NIC buffer, so bursts
// stage requests in the buffer, drain them into the RQ, and reject roots.
func nicBufRQ(cfg Config) Config {
	cfg.RQCapacity = 1
	cfg.NICBufCapacity = 2
	return cfg
}

func TestInvocationConservation(t *testing.T) {
	app := appByName(t, "CPost")
	cases := []struct {
		name                   string
		cfg                    Config
		rootRejects, childRejs bool
	}{
		{"umanycore", UManycoreConfig(), false, false},
		{"scaleout", ScaleOutConfig(), false, false},
		{"umanycore-nicbuf", nicBufRQ(UManycoreConfig()), true, false},
		{"umanycore-tiny-rq", tinyRQ(UManycoreConfig()), true, true},
	}
	for _, tc := range cases {
		eng := sim.NewEngine(1)
		m := New(eng, tc.cfg, app)
		burstArrivals(eng, 40, 6, 50*sim.Microsecond, m.SubmitRoot)
		eng.Run()
		if out := m.Submitted - m.Completed - m.rejectedRoots; out != 0 {
			t.Fatalf("%s: %d roots outstanding after drain", tc.name, out)
		}
		if m.Invocations <= uint64(m.invAllocs) {
			t.Fatalf("%s: %d invocations ran on %d objects: the free list was never reused",
				tc.name, m.Invocations, m.invAllocs)
		}
		if got := m.rejectedRoots > 0; got != tc.rootRejects {
			t.Fatalf("%s: %d rejected roots, want any: %v", tc.name, m.rejectedRoots, tc.rootRejects)
		}
		if childRej := m.Rejected - m.rejectedRoots; (childRej > 0) != tc.childRejs {
			t.Fatalf("%s: %d rejected children, want any: %v", tc.name, childRej, tc.childRejs)
		}
		checkConserved(t, tc.name, m)
	}
}

// TestInvocationConservationPeerServed couples two servers on one engine:
// the caller takes the roots, and the child RPCs that draw the remote
// lottery run on the peer through SubmitRemote, which completes them or,
// with a one-slot RQ and no NIC buffer, rejects them. The peer serves
// nothing else, so every rejection it counts is a peer-served subtree's.
// Either way the peer answers every call, so the caller's remote-call
// table must drain.
func TestInvocationConservationPeerServed(t *testing.T) {
	app := appByName(t, "CPost")
	oneSlot := UManycoreConfig()
	oneSlot.RQCapacity = 1
	oneSlot.NICBufCapacity = 0
	for _, tc := range []struct {
		name    string
		peerCfg Config
		rejects bool
	}{
		{"default-rq", UManycoreConfig(), false},
		{"one-slot-rq", oneSlot, true},
	} {
		callerCfg := UManycoreConfig()
		callerCfg.RemoteCallFrac = 0.5
		callerCfg.RemoteRTT = 2 * sim.Microsecond
		eng := sim.NewEngine(2)
		caller, peer := New(eng, callerCfg, app), New(eng, tc.peerCfg, app)
		caller.SetRemoteSender(func(svcID int, demand float64, depart sim.Time, _ bool, token int32) uint64 {
			eng.At(depart, func() { peer.SubmitRemote(svcID, demand, 0, Reply{Token: token}) })
			return 0
		})
		peer.SetReplyHook(func(to Reply, done sim.Time, rejected bool) {
			if rejected {
				t.Errorf("%s: a peer-served call answered as rejected", tc.name)
			}
			caller.RemoteResponse(to.Token, done)
		})
		burstArrivals(eng, 40, 6, 50*sim.Microsecond, caller.SubmitRoot)
		eng.Run()
		if out := caller.Submitted - caller.Completed - caller.rejectedRoots; out != 0 || caller.Rejected != 0 {
			t.Fatalf("%s: caller has %d roots outstanding and %d rejections after drain",
				tc.name, out, caller.Rejected)
		}
		if peer.RemoteServed == 0 || len(caller.calls) == 0 {
			t.Fatalf("%s: no child RPC was peer-served", tc.name)
		}
		if got := peer.Rejected > 0; got != tc.rejects {
			t.Fatalf("%s: peer rejected %d invocations, want any: %v", tc.name, peer.Rejected, tc.rejects)
		}
		checkConserved(t, tc.name+" caller", caller)
		checkConserved(t, tc.name+" peer", peer)
	}
}

// TestInvocationConservationControl covers control-dispatched roots, whose
// completion and admission reject both answer the front end.
func TestInvocationConservationControl(t *testing.T) {
	app := appByName(t, "CPost")
	eng := sim.NewEngine(3)
	m := New(eng, tinyRQ(UManycoreConfig()), app)
	var completed, rejected int
	m.SetReplyHook(func(_ Reply, _ sim.Time, rej bool) {
		if rej {
			rejected++
		} else {
			completed++
		}
	})
	burstArrivals(eng, 40, 6, 50*sim.Microsecond, func() { m.SubmitRootCtl(Reply{}) })
	eng.Run()
	if completed == 0 || rejected == 0 {
		t.Fatalf("want completed and rejected roots, got %d and %d", completed, rejected)
	}
	if uint64(completed+rejected) != m.Submitted {
		t.Fatalf("%d responses for %d roots", completed+rejected, m.Submitted)
	}
	checkConserved(t, "control", m)
}

// TestConcurrentRunsIndependent runs machines on concurrent goroutines, as
// sweep workers do: each machine's free lists are its own, so every run
// matches the sequential reference (and -race stays silent).
func TestConcurrentRunsIndependent(t *testing.T) {
	cfgs := []Config{UManycoreConfig(), ScaleOutConfig()}
	rc := benchRunConfig(7)
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = Run(cfg, rc)
	}
	got := make([]*Result, 2*len(cfgs))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Run(cfgs[i%len(cfgs)], rc)
		}()
	}
	wg.Wait()
	for i, r := range got {
		w := want[i%len(cfgs)]
		if r.Latency != w.Latency || r.Completed != w.Completed || r.Invocations != w.Invocations || r.Events != w.Events {
			t.Fatalf("concurrent run %d diverged from its sequential reference", i)
		}
	}
}

// TestTreeAffinityNICBufferRejected: with TreeAffinity on a hardware RQ,
// every invocation of a tree queues in its root's village, and blocked
// parents keep their RQ entries. A NIC buffer then stages children behind
// their own blocked parents until an entry frees, which may never happen:
// at 20K RPS on CPost for 1 ms, 9 of 22 trees never finish. Without a NIC
// buffer the RQ rejects instead of staging, and every root is accounted for.
// Validate refuses the combination, naming both fields.
func TestTreeAffinityNICBufferRejected(t *testing.T) {
	cfg := UManycoreConfig()
	cfg.TreeAffinity = true
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), "TreeAffinity") || !strings.Contains(err.Error(), "NICBufCapacity") {
		t.Fatalf("TreeAffinity with a NIC buffer: Validate = %v, want an error naming TreeAffinity and NICBufCapacity", err)
	}
	cfg.NICBufCapacity = 0
	res := Run(cfg, RunConfig{
		App: appByName(t, "CPost"), RPS: 20000,
		Duration: sim.Millisecond, Drain: 2 * sim.Second, Seed: 1,
	})
	if res.Submitted == 0 || res.Unfinished != 0 {
		t.Fatalf("TreeAffinity without a NIC buffer: %d submitted, %d unfinished", res.Submitted, res.Unfinished)
	}
}
