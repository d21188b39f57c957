// Integration tests for streaming telemetry against the real machine and
// fleet models: bit-identical series/alerts across repetitions, merge
// independence from sweep worker count, result non-perturbation, sketch
// fidelity, and watchdog firing under overload. External test package so
// the machine -> telemetry import direction stays acyclic.
package telemetry_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/sim"
	"umanycore/internal/telemetry"
	"umanycore/internal/workload"
)

func teleRunConfig(seed int64) machine.RunConfig {
	apps := workload.SocialNetworkApps()
	return machine.RunConfig{
		App:      apps[6], // CPost: deep call tree with storage
		RPS:      20000,
		Duration: 60 * sim.Millisecond,
		Warmup:   10 * sim.Millisecond,
		Drain:    300 * sim.Millisecond,
		Seed:     seed,
		Telemetry: &telemetry.Options{
			Rules: telemetry.DefaultRules(500),
		},
	}
}

// fingerprint flattens a telemetry run into a DeepEqual-comparable value:
// every series' full point list, the sketch's exact aggregates and
// quantiles, and the alert log.
func fingerprint(r *telemetry.Run) map[string]any {
	fp := map[string]any{"alerts": r.Alerts}
	for _, s := range r.Timeline.Series() {
		fp["series:"+s.Name] = s.Points()
		fp["dropped:"+s.Name] = s.Dropped
	}
	if r.Sketch != nil {
		fp["sketch"] = []float64{
			float64(r.Sketch.N()), r.Sketch.Sum(), r.Sketch.Min(), r.Sketch.Max(),
			r.Sketch.Quantile(0.5), r.Sketch.P99(), r.Sketch.Quantile(0.999),
		}
	}
	return fp
}

// TestTelemetryDeterministicAcrossReps is the repetition half of the
// determinism contract: the same seed yields bit-identical time series,
// sketch and alerts.
func TestTelemetryDeterministicAcrossReps(t *testing.T) {
	cfg := machine.UManycoreConfig()
	a := machine.Run(cfg, teleRunConfig(7))
	b := machine.Run(cfg, teleRunConfig(7))
	if a.Telemetry == nil || b.Telemetry == nil {
		t.Fatal("telemetry missing")
	}
	if len(a.Telemetry.Timeline.Names()) == 0 {
		t.Fatal("no series recorded")
	}
	if !reflect.DeepEqual(fingerprint(a.Telemetry), fingerprint(b.Telemetry)) {
		t.Fatal("telemetry differs between identical repetitions")
	}
	c := machine.Run(cfg, teleRunConfig(8))
	if reflect.DeepEqual(fingerprint(a.Telemetry), fingerprint(c.Telemetry)) {
		t.Fatal("different seeds produced identical telemetry (sampler not observing the run?)")
	}
}

// TestTelemetryResultUnchanged checks the sampler is read-only: attaching
// telemetry must not move a single simulation outcome.
func TestTelemetryResultUnchanged(t *testing.T) {
	cfg := machine.UManycoreConfig()
	rc := teleRunConfig(11)
	with := machine.Run(cfg, rc)
	rc.Telemetry = nil
	without := machine.Run(cfg, rc)
	if with.Latency != without.Latency {
		t.Fatalf("latency summary moved: with=%+v without=%+v", with.Latency, without.Latency)
	}
	if with.Completed != without.Completed || with.Submitted != without.Submitted ||
		with.Rejected != without.Rejected || with.Invocations != without.Invocations {
		t.Fatal("request accounting moved under telemetry")
	}
	if without.Telemetry != nil {
		t.Fatal("telemetry-off run carried a telemetry payload")
	}
}

// TestTelemetryFleetMergeWorkerIndependence pins the merged fleet
// telemetry: it is bit-identical on a repeat run, and it carries no engine
// vitals (sim.events, sim.pending, plain or server-prefixed), because the
// servers share one engine and no sampler owns it.
func TestTelemetryFleetMergeWorkerIndependence(t *testing.T) {
	app := workload.SocialNetworkApps()[0]
	rc := machine.RunConfig{
		Duration: 40 * sim.Millisecond,
		Warmup:   10 * sim.Millisecond,
		Drain:    200 * sim.Millisecond,
		Telemetry: &telemetry.Options{
			Rules: telemetry.DefaultRules(500),
		},
	}
	run := func() *fleet.Result {
		fc := fleet.DefaultConfig(machine.UManycoreConfig())
		fc.Servers = 4
		return fleet.Run(fc, app, 60000, rc, 3)
	}

	seq := run()
	if seq.Telemetry == nil {
		t.Fatal("fleet telemetry missing")
	}
	want := fingerprint(seq.Telemetry)
	for k := range want {
		if strings.Contains(k, "sim.events") || strings.Contains(k, "sim.pending") {
			t.Fatalf("fleet telemetry recorded engine vitals %q", k)
		}
	}
	if _, ok := want["series:pdes.rounds"]; !ok {
		t.Fatal("fleet telemetry lost the pdes.* series")
	}
	if got := fingerprint(run().Telemetry); !reflect.DeepEqual(want, got) {
		t.Fatal("merged telemetry differs on a repeat run")
	}
	if seq.Telemetry.Sketch.N() == 0 {
		t.Fatalf("merged sketch empty (completed %d)", seq.Completed)
	}
}

// TestTelemetrySketchMatchesSample cross-checks the sketch against the
// exact sample on a real run: every checked quantile within the documented
// relative-error bound.
func TestTelemetrySketchMatchesSample(t *testing.T) {
	res := machine.Run(machine.UManycoreConfig(), teleRunConfig(13))
	sk := res.Telemetry.Sketch
	if sk.N() != uint64(res.Sample.N()) {
		t.Fatalf("sketch saw %d observations, sample %d", sk.N(), res.Sample.N())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := res.Sample.Quantile(q)
		est := sk.Quantile(q)
		if exact <= 0 {
			continue
		}
		if rel := math.Abs(est-exact) / exact; rel > sk.Alpha() {
			t.Errorf("q=%v: sketch %.3f vs exact %.3f (rel err %.4f > alpha %.4f)",
				q, est, exact, rel, sk.Alpha())
		}
	}
}

// TestWatchdogFiresUnderOverload runs a loaded machine against a P99
// objective far below what it delivers and expects the latency rules to
// fire deterministically. (Total saturation is the wrong fixture here:
// past the cliff requests stop completing, so there are no latencies for
// the windowed rules to judge — only the queue-depth ceiling sees it.)
func TestWatchdogFiresUnderOverload(t *testing.T) {
	rc := teleRunConfig(5)
	rc.Telemetry = &telemetry.Options{
		Rules: telemetry.DefaultRules(50), // CPost's windowed P99 is well above 50us
	}
	cfg := machine.UManycoreConfig()
	res := machine.Run(cfg, rc)
	alerts := res.Telemetry.Alerts
	if len(alerts) == 0 {
		t.Fatal("overloaded run raised no alerts")
	}
	fired := res.Telemetry.AlertNames()
	if len(fired) == 0 {
		t.Fatal("no rules fired")
	}
	hasP99 := false
	for _, n := range fired {
		if n == "slo.p99" {
			hasP99 = true
		}
	}
	if !hasP99 {
		t.Errorf("P99 rule silent under overload; fired: %v", fired)
	}
	for _, a := range alerts {
		if a.At <= 0 {
			t.Fatalf("alert without virtual timestamp: %+v", a)
		}
	}
	again := machine.Run(cfg, rc)
	if !reflect.DeepEqual(alerts, again.Telemetry.Alerts) {
		t.Fatal("alert log differs between identical repetitions")
	}
}

// TestTelemetryRingBoundsLongRun keeps a run long enough to overflow a tiny
// ring and checks the ceiling holds.
func TestTelemetryRingBoundsLongRun(t *testing.T) {
	rc := teleRunConfig(17)
	rc.Telemetry = &telemetry.Options{
		Interval: 500 * sim.Microsecond,
		Capacity: 16,
	}
	res := machine.Run(machine.UManycoreConfig(), rc)
	found := false
	for _, s := range res.Telemetry.Timeline.Series() {
		if s.Len() > 16 {
			t.Fatalf("series %s holds %d points, capacity 16", s.Name, s.Len())
		}
		if s.Dropped > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("expected at least one series to evict under a 16-point ring")
	}
}
