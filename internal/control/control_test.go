package control

import (
	"strings"
	"testing"

	"umanycore/internal/sim"
)

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	for _, c := range []Config{
		{MaxRetries: 3},
		{HedgeAfter: sim.Millisecond},
		{ShedProb: 0.5, ShedSLOMicros: 100},
		{ScaleMin: 2, ScaleP99Micros: 100},
	} {
		if !c.Enabled() {
			t.Fatalf("config %+v should be enabled", c)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("config %+v should validate: %v", c, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{MaxRetries: -1}, "MaxRetries"},
		{Config{RetryBase: -1}, "negative duration"},
		{Config{HedgeAfter: -1}, "negative duration"},
		{Config{ScaleLag: -1}, "negative duration"},
		{Config{RetryJitter: 1.5}, "RetryJitter"},
		{Config{RetryJitter: -0.1}, "RetryJitter"},
		{Config{ShedProb: 2}, "ShedProb"},
		{Config{ShedProb: 0.5}, "ShedSLOMicros"},
		{Config{ScaleMin: -2}, "ScaleMin"},
		{Config{ScaleMin: 2}, "ScaleP99Micros"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Validate(%+v) = %v, want error mentioning %q", c.cfg, err, c.want)
		}
	}
}

func TestNewPanicsOnTinyFleet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 1 server did not panic")
		}
	}()
	New(sim.NewEngine(1), Config{MaxRetries: 1}, 1, 0, 1)
}

func TestBackoffCappedExponential(t *testing.T) {
	c := New(sim.NewEngine(1), Config{
		MaxRetries: 8, RetryBase: sim.Millisecond, RetryCap: 4 * sim.Millisecond,
	}, 4, 0, 1)
	want := []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 4 * sim.Millisecond, 4 * sim.Millisecond, 4 * sim.Millisecond}
	for i, w := range want {
		if got := c.backoff(i + 1); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterStaysInRange(t *testing.T) {
	c := New(sim.NewEngine(1), Config{
		MaxRetries: 4, RetryBase: sim.Millisecond, RetryCap: 8 * sim.Millisecond, RetryJitter: 0.5,
	}, 4, 0, 7)
	for k := 1; k <= 4; k++ {
		full := New(sim.NewEngine(1), Config{
			MaxRetries: 4, RetryBase: sim.Millisecond, RetryCap: 8 * sim.Millisecond,
		}, 4, 0, 7).backoff(k)
		for trial := 0; trial < 50; trial++ {
			d := c.backoff(k)
			if d <= full/2 || d > full {
				t.Fatalf("jittered backoff(%d) = %v outside (%v, %v]", k, d, full/2, full)
			}
		}
	}
}

func TestBackoffUncappedDoesNotOverflow(t *testing.T) {
	c := New(sim.NewEngine(1), Config{MaxRetries: 200, RetryBase: sim.Second}, 4, 0, 1)
	d := c.backoff(200)
	if d <= 0 {
		t.Fatalf("uncapped backoff overflowed to %v", d)
	}
}

// bindLoopback wires a controller to a synthetic fleet: server s answers
// after serve(s) with reject(s)'s verdict, round-robin picks.
func bindLoopback(eng *sim.Engine, c *Controller, serve func(s int) sim.Time, rejected func(s int) bool) {
	next := 0
	c.Bind(
		func() int {
			s := next % c.ActiveServers()
			next++
			return s
		},
		func(s int, token int32) {
			eng.After(serve(s), func() { c.Response(token, rejected(s)) })
		},
	)
}

func TestRetryExhaustionRejects(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, Config{MaxRetries: 3, RetryBase: 10 * sim.Microsecond}, 4, 0, 1)
	bindLoopback(eng, c, func(int) sim.Time { return sim.Microsecond }, func(int) bool { return true })
	eng.At(1, c.AdmitRoot)
	eng.RunUntil(sim.Second)
	s := c.Finish()
	if s.Rejected != 1 || s.Completed != 0 || s.Unfinished != 0 {
		t.Fatalf("stats = %+v, want 1 permanent reject", s)
	}
	if s.Retries != 3 || s.Attempts != 4 {
		t.Fatalf("retries=%d attempts=%d, want 3 and 4", s.Retries, s.Attempts)
	}
	if s.Attempts != s.Submitted+s.Retries+s.Hedges-s.Shed {
		t.Fatalf("attempt identity violated: %+v", s)
	}
}

func TestRetryEventuallySucceeds(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, Config{MaxRetries: 5, RetryBase: 10 * sim.Microsecond}, 4, 0, 1)
	fails := 2
	bindLoopback(eng, c, func(int) sim.Time { return sim.Microsecond }, func(int) bool {
		fails--
		return fails >= 0
	})
	eng.At(1, c.AdmitRoot)
	eng.RunUntil(sim.Second)
	s := c.Finish()
	if s.Completed != 1 || s.Rejected != 0 || s.Retries != 2 || s.Attempts != 3 {
		t.Fatalf("stats = %+v, want success after 2 retries", s)
	}
}

func TestHedgeWinsRace(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, Config{HedgeAfter: 100 * sim.Microsecond}, 4, 0, 1)
	// Server 0 (the primary pick) is a straggler; everyone else is fast.
	bindLoopback(eng, c, func(s int) sim.Time {
		if s == 0 {
			return 10 * sim.Millisecond
		}
		return 10 * sim.Microsecond
	}, func(int) bool { return false })
	eng.At(1, c.AdmitRoot)
	eng.RunUntil(sim.Second)
	s := c.Finish()
	if s.Hedges != 1 || s.HedgeWins != 1 || s.HedgeWaste != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v, want hedge fired, won, and wasted the primary", s)
	}
	// Client latency is the hedge path: ~HedgeAfter + fast service, far
	// under the straggler's 10ms.
	if s.Latency.Mean >= (5 * sim.Millisecond).Micros() {
		t.Fatalf("hedge did not cut latency: mean %v us", s.Latency.Mean)
	}
	if s.Attempts != s.Submitted+s.Retries+s.Hedges-s.Shed {
		t.Fatalf("attempt identity violated: %+v", s)
	}
}

func TestFastPrimaryCancelsHedge(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, Config{HedgeAfter: sim.Millisecond}, 4, 0, 1)
	bindLoopback(eng, c, func(int) sim.Time { return 10 * sim.Microsecond }, func(int) bool { return false })
	eng.At(1, c.AdmitRoot)
	eng.RunUntil(sim.Second)
	s := c.Finish()
	if s.Hedges != 0 || s.HedgeWaste != 0 || s.Completed != 1 {
		t.Fatalf("stats = %+v, want hedge timer cancelled by fast primary", s)
	}
}

func TestShedGateDropsWhileFiring(t *testing.T) {
	eng := sim.NewEngine(1)
	c := New(eng, Config{ShedProb: 1, ShedSLOMicros: 100}, 4, 0, 1)
	dispatched := 0
	c.Bind(func() int { return 0 }, func(s int, token int32) {
		dispatched++
		eng.After(sim.Microsecond, func() { c.Response(token, false) })
	})
	c.BurnEdge(1, true)
	eng.At(1, c.AdmitRoot)
	eng.At(2, c.AdmitRoot)
	// Resolve the burn; admissions flow again.
	eng.At(3, func() { c.BurnEdge(1, false) })
	eng.At(4, c.AdmitRoot)
	eng.RunUntil(sim.Second)
	s := c.Finish()
	if s.Shed != 2 || s.Rejected != 2 || dispatched != 1 || s.Completed != 1 {
		t.Fatalf("stats = %+v dispatched=%d, want 2 shed + 1 served", s, dispatched)
	}
	if s.BurnEdges != 1 {
		t.Fatalf("burn edges = %d, want 1 fire edge", s.BurnEdges)
	}
}

func TestBurnEdgeDeduplicates(t *testing.T) {
	c := New(sim.NewEngine(1), Config{ShedProb: 0.5, ShedSLOMicros: 100}, 4, 0, 1)
	c.BurnEdge(0, true)
	c.BurnEdge(0, true) // duplicate fire must not double-count
	c.BurnEdge(1, true)
	c.BurnEdge(0, false)
	if c.firing != 1 {
		t.Fatalf("firing = %d, want 1", c.firing)
	}
	if c.stats.BurnEdges != 2 {
		t.Fatalf("burn edges = %d, want 2", c.stats.BurnEdges)
	}
}

func TestAutoscalerGrowsAndShrinks(t *testing.T) {
	eng := sim.NewEngine(1)
	lag := 2 * sim.Millisecond
	c := New(eng, Config{
		ScaleMin: 2, ScaleP99Micros: 100, ScaleLag: lag, ScaleWindow: 5 * sim.Millisecond,
	}, 8, 0, 1)
	if c.ActiveServers() != 2 {
		t.Fatalf("active = %d at start, want ScaleMin", c.ActiveServers())
	}
	// A slow window: p99 over target → scale up, active only after the lag.
	c.winLat = []float64{500, 600, 700}
	c.AtBarrier(5 * sim.Millisecond)
	if c.ActiveServers() != 2 {
		t.Fatal("activation ignored the cold-start lag")
	}
	eng.RunUntil(5*sim.Millisecond + lag)
	if c.ActiveServers() != 3 {
		t.Fatalf("active = %d after lag, want 3", c.ActiveServers())
	}
	// Throttle: a barrier before the next window must not evaluate.
	c.winLat = []float64{500}
	c.AtBarrier(6 * sim.Millisecond)
	if c.stats.ScaleUps != 1 {
		t.Fatal("autoscaler evaluated inside the throttle window")
	}
	// Fast windows: p99 under half the target → shrink back toward ScaleMin.
	c.winLat = []float64{10, 20, 30}
	c.AtBarrier(10 * sim.Millisecond)
	if c.ActiveServers() != 2 || c.stats.ScaleDowns != 1 {
		t.Fatalf("active = %d downs = %d, want immediate shrink", c.ActiveServers(), c.stats.ScaleDowns)
	}
	s := c.Finish()
	if s.ScaleUps != 1 || s.ScaleDowns != 1 || s.ActiveServers != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestControllerDeterministicRepeat(t *testing.T) {
	run := func() Stats {
		eng := sim.NewEngine(1)
		c := New(eng, Config{
			MaxRetries: 3, RetryBase: 20 * sim.Microsecond, RetryCap: 100 * sim.Microsecond,
			RetryJitter: 0.5, HedgeAfter: 300 * sim.Microsecond,
		}, 4, 0, 9)
		rng := sim.NewStreams(99).Rand("load")
		bindLoopback(eng, c, func(s int) sim.Time {
			return sim.Time(1 + rng.Int63n(int64(400*sim.Microsecond))) // deterministic: same stream both runs
		}, func(s int) bool { return s == 1 })
		for i := 0; i < 200; i++ {
			at := sim.Time(1 + i*int(50*sim.Microsecond))
			eng.At(at, c.AdmitRoot)
		}
		eng.RunUntil(sim.Second)
		// Every attempt was answered, so every token is free again.
		if len(c.attempts) == 0 || len(c.attemptFree) != len(c.attempts) {
			t.Fatalf("%d of %d attempt tokens free after every attempt was answered", len(c.attemptFree), len(c.attempts))
		}
		s := *c.Finish()
		s.Sample = nil
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("repeat controller runs diverged:\na %+v\nb %+v", a, b)
	}
	if a.Retries == 0 || a.Hedges == 0 {
		t.Fatalf("chaos run exercised nothing: %+v", a)
	}
	if a.Attempts != a.Submitted+a.Retries+a.Hedges-a.Shed {
		t.Fatalf("attempt identity violated: %+v", a)
	}
}
