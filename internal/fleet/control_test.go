package fleet

import (
	"encoding/json"
	"reflect"
	"testing"

	"umanycore/internal/control"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/sweep"
	"umanycore/internal/workload"
)

// overloadFleet is a fleet built to reject: tiny hardware RQs and NIC
// buffers on small machines, driven far past capacity by the control tests.
func overloadFleet(servers int) Config {
	cfg := machine.UManycoreConfig()
	cfg.Cores = 16
	cfg.Domains = 2
	cfg.RQCapacity = 4
	cfg.NICBufCapacity = 4
	cfg.LeafSpineCfg.Pods = 1
	cfg.LeafSpineCfg.LeavesPerPod = 2
	fc := DefaultConfig(cfg)
	fc.Servers = servers
	fc.CrossServerFrac = 0.25
	return fc
}

func synthApp(t *testing.T) *workload.App {
	t.Helper()
	app, err := workload.SyntheticApp("deterministic", 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func fullControl() *control.Config {
	return &control.Config{
		MaxRetries:    3,
		RetryBase:     50 * sim.Microsecond,
		RetryCap:      400 * sim.Microsecond,
		RetryJitter:   0.5,
		HedgeAfter:    2 * sim.Millisecond,
		ShedProb:      0.5,
		ShedSLOMicros: 500,
		ShedWindow:    sim.Millisecond,
	}
}

// TestControlChaosTermination is the retry loop's liveness/accounting
// property test: under heavy overload with retries, jittered backoff,
// hedging and burn-triggered shedding all enabled, every submitted client
// root terminates inside the horizon (no livelock, no lost roots) and the
// invocation counts reconcile exactly — at the client level
// (Attempts == Submitted + Retries + Hedges - Shed) and against the
// per-attempt accounting the servers keep (every dispatched attempt is a
// server-side root submission). Replicates must be identical for 1 sweep
// worker and many.
func TestControlChaosTermination(t *testing.T) {
	app := synthApp(t)
	fc := overloadFleet(3)
	fc.Control = fullControl()
	rc := machine.RunConfig{Duration: 60 * sim.Millisecond, Warmup: 10 * sim.Millisecond, Drain: sim.Second}

	check := func(r *Result, seed int64) {
		c := r.Control
		if c == nil {
			t.Fatal("controlled run returned no control stats")
		}
		if c.Submitted == 0 {
			t.Fatal("no load submitted; test is vacuous")
		}
		if c.Unfinished != 0 {
			t.Fatalf("seed %d: %d roots never terminated (livelock or lost response)", seed, c.Unfinished)
		}
		if c.Completed+c.Rejected != c.Submitted {
			t.Fatalf("seed %d: submitted %d != completed %d + rejected %d", seed, c.Submitted, c.Completed, c.Rejected)
		}
		if c.Attempts != c.Submitted+c.Retries+c.Hedges-c.Shed {
			t.Fatalf("seed %d: attempt identity violated: %+v", seed, c)
		}
		if r.Unfinished == 0 && r.Submitted != c.Attempts {
			t.Fatalf("seed %d: servers saw %d roots, dispatcher sent %d attempts", seed, r.Submitted, c.Attempts)
		}
		if c.Retries == 0 || c.Shed == 0 {
			t.Fatalf("seed %d: overload exercised no retries (%d) or sheds (%d); test is vacuous", seed, c.Retries, c.Shed)
		}
	}

	seeds := []int64{3, 4, 5}
	runReps := func(workers int) []*Result {
		rs := sweep.Map(workers, seeds, func(_ int, seed int64) *Result {
			return Run(fc, app, 90000, rc, seed)
		})
		stripWall(rs...)
		return rs
	}
	one := runReps(1)
	for i, r := range one {
		check(r, seeds[i])
	}
	if !reflect.DeepEqual(one, runReps(4)) {
		t.Fatal("controlled fleet results depend on sweep worker count")
	}
}

// TestControlMetrics pins the control-loop self-observability: with metrics
// on, a controlled run's merged snapshot carries control.{retries,hedges,
// shed,scale_ups} counters and a control.active_servers gauge that agree
// with the deterministic client-level stats.
func TestControlMetrics(t *testing.T) {
	app := synthApp(t)
	fc := overloadFleet(3)
	fc.Control = fullControl()
	rc := machine.RunConfig{
		Duration: 60 * sim.Millisecond, Warmup: 10 * sim.Millisecond,
		Drain: sim.Second, Obs: &obs.Options{Metrics: true},
	}
	r := Run(fc, app, 90000, rc, 3)
	c := r.Control
	if c == nil || r.Obs == nil {
		t.Fatal("controlled run missing control stats or obs payload")
	}
	for name, want := range map[string]float64{
		"control.retries":        float64(c.Retries),
		"control.hedges":         float64(c.Hedges),
		"control.shed":           float64(c.Shed),
		"control.scale_ups":      float64(c.ScaleUps),
		"control.active_servers": float64(c.ActiveServers),
	} {
		got, ok := r.Obs.Metrics.Get(name)
		if !ok {
			t.Fatalf("metric %q missing from merged snapshot", name)
		}
		if got != want {
			t.Fatalf("metric %q = %v, want %v (Result.Control)", name, got, want)
		}
	}
	if v, _ := r.Obs.Metrics.Get("control.retries"); v == 0 {
		t.Fatal("overload drove no retries; test is vacuous")
	}
}

// TestControlShardWorkerInvariance pins the control loops' determinism:
// with every control loop live (retry, hedge, shed, autoscale), a repeat
// coupled run is byte-identical in its JSON cell payload, so cached control
// cells are reproducible.
func TestControlShardWorkerInvariance(t *testing.T) {
	app := synthApp(t)
	fc := overloadFleet(4)
	fc.Control = fullControl()
	fc.Control.ScaleMin = 2
	fc.Control.ScaleP99Micros = 2000
	fc.Control.ScaleLag = 2 * sim.Millisecond
	fc.Control.ScaleWindow = 5 * sim.Millisecond
	rc := machine.RunConfig{Duration: 50 * sim.Millisecond, Warmup: 10 * sim.Millisecond, Drain: sim.Second}

	run := func() (*Result, []byte) {
		r := Run(fc, app, 80000, rc, 13)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return r, b
	}
	r, ref := run()
	if _, got := run(); string(ref) != string(got) {
		t.Fatalf("repeat run diverged:\nref %s\ngot %s", ref, got)
	}
	// The check must cover live control loops, not idle ones.
	c := r.Control
	if c == nil || c.Retries == 0 || c.Shed == 0 || c.ScaleUps == 0 {
		t.Fatalf("determinism test exercised nothing: %+v", c)
	}
}

// TestControlRequiresCoupledFleet pins the API guard: control loops need a
// dispatcher, which a one-server fleet does not have.
func TestControlRequiresCoupledFleet(t *testing.T) {
	app := synthApp(t)
	fc := overloadFleet(3)
	fc.Control = fullControl()

	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s with control config did not panic", name)
			}
		}()
		fn()
	}
	one := fc
	one.Servers = 1
	expectPanic("1-server Run", func() { Run(one, app, 1000, machine.RunConfig{Duration: sim.Millisecond}, 1) })
}

// TestControlDisabledIsInert: a nil or zero Control config must leave the
// coupled run byte-identical to a config-less run.
func TestControlDisabledIsInert(t *testing.T) {
	app := synthApp(t)
	fc := overloadFleet(3)
	rc := machine.RunConfig{Duration: 30 * sim.Millisecond, Warmup: 5 * sim.Millisecond, Drain: 500 * sim.Millisecond}
	base := Run(fc, app, 60000, rc, 23)
	zero := fc
	zero.Control = &control.Config{}
	got := Run(zero, app, 60000, rc, 23)
	stripWall(base, got)
	if !reflect.DeepEqual(base, got) {
		t.Fatal("zero control config perturbed the run")
	}
}
