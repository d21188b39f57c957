package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Microsecond != 1_000_000 {
		t.Fatalf("Microsecond = %d, want 1e6 ps", int64(Microsecond))
	}
	if got := FromMicros(2.5); got != 2_500_000 {
		t.Fatalf("FromMicros(2.5) = %d", int64(got))
	}
	if got := Time(1_500_000).Micros(); got != 1.5 {
		t.Fatalf("Micros = %v", got)
	}
	if got := FromSeconds(0.001); got != Millisecond {
		t.Fatalf("FromSeconds(0.001) = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000us"},
		{4 * Millisecond, "4.000ms"},
		{5 * Second, "5.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterAndNesting(t *testing.T) {
	e := NewEngine(1)
	var hits []Time
	e.After(5, func() {
		hits = append(hits, e.Now())
		e.After(7, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 12 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	h := e.At(10, func() { ran = true })
	if !e.Cancel(h) {
		t.Fatal("first Cancel returned false")
	}
	if e.Cancel(h) {
		t.Fatal("second Cancel returned true")
	}
	e.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var order []int
	handles := make([]Handle, 5)
	for i := 0; i < 5; i++ {
		i := i
		handles[i] = e.At(Time(10*(i+1)), func() { order = append(order, i) })
	}
	e.Cancel(handles[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i*10), func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("count = %d after RunUntil(50)", count)
	}
	if e.Now() != 50 {
		t.Fatalf("Now = %v", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d after Run", count)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestRandStreamsDeterministic(t *testing.T) {
	a := NewEngine(42)
	b := NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand("x").Int63() != b.Rand("x").Int63() {
			t.Fatal("same seed + name produced different streams")
		}
	}
	c := NewEngine(42)
	same := true
	for i := 0; i < 10; i++ {
		if c.Rand("x").Int63() != c.Rand("y").Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different stream names produced identical values")
	}
}

func TestEngineDeterministicRun(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		var stamps []Time
		var rec func()
		n := 0
		rec = func() {
			stamps = append(stamps, e.Now())
			n++
			if n < 50 {
				e.After(Time(e.Rand("gap").Intn(100)+1), rec)
			}
		}
		e.At(0, rec)
		e.Run()
		return stamps
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResourceAcquire(t *testing.T) {
	var r Resource
	// Idle resource: starts immediately.
	if done := r.Acquire(100, 10); done != 110 {
		t.Fatalf("done = %d, want 110", done)
	}
	// Busy resource: queues.
	if done := r.Acquire(105, 10); done != 120 {
		t.Fatalf("done = %d, want 120", done)
	}
	// Arrival after idle gap: starts at arrival.
	if done := r.Acquire(500, 5); done != 505 {
		t.Fatalf("done = %d, want 505", done)
	}
	if r.TotalBusy != 25 {
		t.Fatalf("TotalBusy = %d", r.TotalBusy)
	}
	if r.BusyUntil() != 505 {
		t.Fatalf("BusyUntil = %d", r.BusyUntil())
	}
}

func TestResourceQueueDelay(t *testing.T) {
	var r Resource
	r.Acquire(0, 100)
	if d := r.QueueDelay(40); d != 60 {
		t.Fatalf("QueueDelay = %d", d)
	}
	if d := r.QueueDelay(200); d != 0 {
		t.Fatalf("QueueDelay after idle = %d", d)
	}
}

func TestResourceUtilization(t *testing.T) {
	var r Resource
	r.Acquire(0, 25)
	r.Acquire(50, 25)
	if u := r.Utilization(100); u != 0.5 {
		t.Fatalf("Utilization = %v", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Fatalf("Utilization(0) = %v", u)
	}
	r.Reset()
	if r.TotalBusy != 0 || r.BusyUntil() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// Property: a resource never starts a job before the previous one finished,
// and never before its arrival.
func TestResourceFIFOProperty(t *testing.T) {
	f := func(arrivalGaps []uint8, durs []uint8) bool {
		var r Resource
		now := Time(0)
		prevDone := Time(0)
		n := len(arrivalGaps)
		if len(durs) < n {
			n = len(durs)
		}
		for i := 0; i < n; i++ {
			now += Time(arrivalGaps[i])
			d := Time(durs[i]%50 + 1)
			done := r.Acquire(now, d)
			start := done - d
			if start < now || start < prevDone {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: engine executes all events in nondecreasing time order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine(3)
		var fired []Time
		for _, tt := range times {
			e.At(Time(tt), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// runTrace drives a deterministic random event cascade and records (time,
// value) pairs — the fingerprint used by the reuse tests below.
func runTrace(e *Engine) []int64 {
	var out []int64
	n := 0
	var rec func()
	rec = func() {
		out = append(out, int64(e.Now()), e.Rand("x").Int63())
		n++
		if n < 64 {
			h := e.After(Time(e.Rand("gap").Intn(50)+1), func() {})
			e.After(Time(e.Rand("gap").Intn(50)+1), rec)
			if n%3 == 0 {
				e.Cancel(h)
			}
		}
	}
	e.At(0, rec)
	e.Run()
	return out
}

func TestEngineResetMatchesFresh(t *testing.T) {
	reused := NewEngine(1)
	runTrace(reused) // dirty the engine under a different seed
	reused.Reset(99)
	got := runTrace(reused)
	want := runTrace(NewEngine(99))
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset engine diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestEngineCapMatchesDefault(t *testing.T) {
	a := runTrace(NewEngine(7))
	b := runTrace(NewEngineCap(7, 4096))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("capacity hint changed behaviour at %d", i)
		}
	}
}

func TestStaleHandleCannotCancelRecycledNode(t *testing.T) {
	e := NewEngine(1)
	fired := false
	h := e.At(10, func() {})
	e.Run() // h's node fires and is recycled
	// The next event may reuse the node behind h; the stale handle must not
	// be able to cancel it.
	e.At(20, func() { fired = true })
	if e.Cancel(h) {
		t.Fatal("stale handle cancel reported success")
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled a recycled node's new event")
	}
}

func TestEngineResetClearsPending(t *testing.T) {
	e := NewEngine(5)
	ran := false
	e.At(100, func() { ran = true })
	e.Reset(5)
	if e.Pending() != 0 || e.Now() != 0 || e.Fired() != 0 {
		t.Fatalf("reset left state: pending=%d now=%v fired=%d", e.Pending(), e.Now(), e.Fired())
	}
	e.Run()
	if ran {
		t.Fatal("event survived Reset")
	}
}

func TestMaxPendingHighWater(t *testing.T) {
	e := NewEngine(1)
	if e.MaxPending() != 0 {
		t.Fatalf("fresh engine MaxPending = %d, want 0", e.MaxPending())
	}
	for i := 1; i <= 5; i++ {
		e.At(Time(i), func() {})
	}
	if e.MaxPending() != 5 {
		t.Fatalf("MaxPending = %d, want 5", e.MaxPending())
	}
	e.Run()
	// The high-water mark survives the drain.
	if e.Pending() != 0 || e.MaxPending() != 5 {
		t.Fatalf("after run: pending=%d max=%d, want 0, 5", e.Pending(), e.MaxPending())
	}
	// Scheduling from inside events keeps tracking the true peak.
	e2 := NewEngine(1)
	e2.At(1, func() {
		e2.At(2, func() {})
		e2.At(3, func() {})
		e2.At(4, func() {})
	})
	e2.Run()
	if e2.MaxPending() != 3 {
		t.Fatalf("nested MaxPending = %d, want 3", e2.MaxPending())
	}
}

func TestResetClearsMaxPending(t *testing.T) {
	e := NewEngine(1)
	e.At(1, func() {})
	e.At(2, func() {})
	e.Reset(2)
	if e.MaxPending() != 0 {
		t.Fatalf("MaxPending after Reset = %d, want 0", e.MaxPending())
	}
}

// TestDeriveSeed pins the seed-derivation contract: deterministic, and free
// of the additive-stride collisions that motivated it — with the old
// seed + s*7919 scheme, server s of replicate r collided with server s-1 of
// replicate r+7919 (and the ^stride XOR mixes had analogous aliases).
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(42, 3) != DeriveSeed(42, 3) {
		t.Fatal("DeriveSeed not deterministic")
	}

	// The collision the fleet actually had: base seeds one stride apart,
	// indices one apart, must not alias.
	for _, stride := range []int64{1, 7919, 104729} {
		for base := int64(0); base < 8; base++ {
			if DeriveSeed(base+stride, 0) == DeriveSeed(base, 1) {
				t.Fatalf("stride alias: DeriveSeed(%d,0) == DeriveSeed(%d,1)", base+stride, base)
			}
		}
	}

	// No collisions over a dense (base, idx) grid — 64 bases × 64 indices.
	seen := make(map[int64][2]int64)
	for base := int64(-32); base < 32; base++ {
		for idx := int64(0); idx < 64; idx++ {
			s := DeriveSeed(base, idx)
			if prev, ok := seen[s]; ok {
				t.Fatalf("collision: (%d,%d) and (%d,%d) both give %d", base, idx, prev[0], prev[1], s)
			}
			seen[s] = [2]int64{base, idx}
		}
	}

	// Derived seeds should differ from the base (idx 0 is not identity).
	if DeriveSeed(0, 0) == 0 || DeriveSeed(1, 0) == 1 {
		t.Fatal("DeriveSeed acts as identity")
	}
}

func TestNextEventAt(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("empty engine reported a pending event")
	}
	e.At(30, func() {})
	e.At(10, func() {})
	e.At(20, func() {})
	if at, ok := e.NextEventAt(); !ok || at != 10 {
		t.Fatalf("NextEventAt = %v, %v; want 10, true", at, ok)
	}
	e.RunUntil(10)
	if at, ok := e.NextEventAt(); !ok || at != 20 {
		t.Fatalf("after RunUntil(10): NextEventAt = %v, %v; want 20, true", at, ok)
	}
	e.Run()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("drained engine reported a pending event")
	}
}

// TestStreamsMatchEngineRand pins the property PDES sharding depends on: a
// Streams bundle seeded s draws exactly what an engine seeded s would, for
// every stream name, so moving an entity between engines cannot change its
// randomness.
func TestStreamsMatchEngineRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		e := NewEngine(seed)
		s := NewStreams(seed)
		for _, name := range []string{"service", "icn", "route", "arrivals", ""} {
			er, sr := e.Rand(name), s.Rand(name)
			for i := 0; i < 64; i++ {
				if a, b := er.Int63(), sr.Int63(); a != b {
					t.Fatalf("seed %d stream %q draw %d: engine %d != streams %d", seed, name, i, a, b)
				}
			}
		}
	}
}

func TestStreamsIndependentNames(t *testing.T) {
	s := NewStreams(99)
	a, b := s.Rand("a"), s.Rand("b")
	if a == b {
		t.Fatal("distinct names share a stream")
	}
	if s.Rand("a") != a {
		t.Fatal("same name returned a different stream")
	}
}
