// Integration tests for the observability layer against the real machine and
// fleet models: span-tree invariants, exact tail reconciliation, determinism,
// and worker-count-independent merging. External test package so the
// machine -> obs import direction stays acyclic.
package obs_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

func tracedRun(t *testing.T, seed int64) *machine.Result {
	t.Helper()
	apps := workload.SocialNetworkApps()
	res := machine.Run(machine.UManycoreConfig(), machine.RunConfig{
		App:      apps[6], // CPost: deep call tree with storage
		RPS:      20000,
		Duration: 60 * sim.Millisecond,
		Warmup:   10 * sim.Millisecond,
		Seed:     seed,
		Obs:      obs.DefaultOptions(),
	})
	if res.Obs == nil || len(res.Obs.Spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	return res
}

// TestSpanTreeContainment checks the structural invariants every recorded
// tree must satisfy: dense IDs, parents recorded before children, children
// contained in their parent's [start, end], and closed envelopes for every
// completed request.
func TestSpanTreeContainment(t *testing.T) {
	res := tracedRun(t, 3)
	spans := res.Obs.Spans
	for i, s := range spans {
		if s.ID != uint64(i)+1 {
			t.Fatalf("span %d has ID %d, want dense IDs", i, s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %d recorded before its parent %d", s.ID, s.Parent)
		}
		p := &spans[s.Parent-1]
		if s.Req != p.Req {
			t.Fatalf("span %d req %d != parent req %d", s.ID, s.Req, p.Req)
		}
		if s.Start < p.Start {
			t.Fatalf("span %d starts %v before parent start %v", s.ID, s.Start, p.Start)
		}
		// Containment of the end only applies when both spans are closed.
		if s.End > s.Start && p.End > p.Start && s.End > p.End {
			t.Fatalf("span %d (stage %v) ends %v after parent %d end %v",
				s.ID, s.Stage, s.End, p.ID, p.End)
		}
	}
}

// TestCriticalPathEqualsLatency verifies the analyzer's core guarantee on
// every traced request (topFrac = 1): per-stage critical-path times sum to
// the end-to-end latency exactly.
func TestCriticalPathEqualsLatency(t *testing.T) {
	res := tracedRun(t, 4)
	rep := obs.Analyze(res.Obs.Spans, 1)
	if rep.Total == 0 {
		t.Fatal("no clean requests to analyze")
	}
	for _, rb := range rep.Requests {
		var sum sim.Time
		for _, d := range rb.ByStage {
			sum += d
		}
		if sum != rb.Latency {
			t.Fatalf("request %d: stage sum %v != latency %v", rb.Req, sum, rb.Latency)
		}
	}
	if rep.Residual() != 0 {
		t.Fatalf("aggregate residual = %v, want 0", rep.Residual())
	}
}

// TestTracedTailMatchesMeasured cross-checks the two independent measurement
// paths: the P99 computed from span trees must match the latency sample's
// P99 (both use nearest-rank over the same completed requests).
func TestTracedTailMatchesMeasured(t *testing.T) {
	res := tracedRun(t, 5)
	if res.Rejected != 0 || res.Unfinished != 0 {
		t.Fatalf("want a clean run for exact reconciliation, got rejected=%d unfinished=%d",
			res.Rejected, res.Unfinished)
	}
	rep := obs.Analyze(res.Obs.Spans, 0.01)
	if rep.Total != res.Latency.N {
		t.Fatalf("traced %d requests, measured %d", rep.Total, res.Latency.N)
	}
	traced := rep.P99.Micros()
	measured := res.Latency.P99
	diff := traced - measured
	if diff < 0 {
		diff = -diff
	}
	// The sample stores microsecond floats; allow only float rounding slack.
	if diff > 1e-6*measured {
		t.Fatalf("traced p99 %.6f != measured p99 %.6f", traced, measured)
	}
}

// TestTraceDeterminism: identical seeds must produce bit-identical spans and
// metrics.
func TestTraceDeterminism(t *testing.T) {
	a := tracedRun(t, 7)
	b := tracedRun(t, 7)
	if !reflect.DeepEqual(a.Obs.Spans, b.Obs.Spans) {
		t.Fatal("same-seed runs recorded different spans")
	}
	if !reflect.DeepEqual(a.Obs.Metrics, b.Obs.Metrics) {
		t.Fatal("same-seed runs recorded different metrics")
	}
}

// TestFleetMergeWorkerIndependence mirrors experiments/determinism_test.go:
// the merged fleet trace must be identical on a repeat run, because
// per-server collectors are merged in server order.
func TestFleetMergeWorkerIndependence(t *testing.T) {
	apps := workload.SocialNetworkApps()
	run := func() *fleet.Result {
		fc := fleet.DefaultConfig(machine.UManycoreConfig())
		fc.Servers = 4
		return fleet.Run(fc, apps[0], 40000, machine.RunConfig{
			Duration: 40 * sim.Millisecond,
			Warmup:   10 * sim.Millisecond,
			Obs:      obs.DefaultOptions(),
		}, 11)
	}
	serial := run()
	if serial.Obs == nil || len(serial.Obs.Spans) == 0 {
		t.Fatal("fleet run recorded no spans")
	}
	again := run()
	if !reflect.DeepEqual(serial.Obs.Spans, again.Obs.Spans) {
		t.Fatal("fleet spans differ on a repeat run")
	}
	if !reflect.DeepEqual(serial.Obs.Metrics, again.Obs.Metrics) {
		t.Fatal("fleet metrics differ on a repeat run")
	}
	// Merged request IDs must stay unique across servers.
	roots := make(map[uint64]bool)
	for _, s := range serial.Obs.Spans {
		if s.Parent == 0 {
			if roots[s.Req] {
				t.Fatalf("duplicate root request ID %d after merge", s.Req)
			}
			roots[s.Req] = true
		}
	}
}

// TestChromeTraceExport checks the exporter emits valid JSON in the
// trace-event format Perfetto loads.
func TestChromeTraceExport(t *testing.T) {
	res := tracedRun(t, 9)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, res.Obs.Spans, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  uint64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event phase %q, want complete events (X)", ev.Ph)
		}
		if ev.Dur < 0 || ev.Ts < 0 {
			t.Fatalf("negative ts/dur in event %+v", ev)
		}
	}
}

func TestSpansCSVExport(t *testing.T) {
	res := tracedRun(t, 10)
	var buf bytes.Buffer
	if err := obs.WriteSpansCSV(&buf, res.Obs.Spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(res.Obs.Spans)+1 {
		t.Fatalf("CSV has %d lines, want header + %d spans", len(lines), len(res.Obs.Spans))
	}
	wantCols := len(strings.Split(lines[0], ","))
	for i, ln := range lines {
		if got := len(strings.Split(ln, ",")); got != wantCols {
			t.Fatalf("line %d has %d columns, want %d", i, got, wantCols)
		}
	}
}

func TestMetricsPresent(t *testing.T) {
	res := tracedRun(t, 12)
	snap := res.Obs.Metrics
	for _, name := range []string{
		"sim.events", "sim.heap.peak",
		"machine.queue.depth.mean", "machine.queue.depth.max",
		"machine.admit.rq", "machine.submitted", "machine.completed",
		"machine.core.util.mean", "icn.messages",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("metric %q missing from snapshot", name)
		}
	}
	if v, _ := snap.Get("sim.events"); uint64(v) != res.Events {
		t.Fatalf("sim.events = %v, Result.Events = %d", v, res.Events)
	}
	if v, _ := snap.Get("machine.submitted"); uint64(v) != res.Submitted {
		t.Fatalf("machine.submitted = %v, Result.Submitted = %d", v, res.Submitted)
	}
}

// TestDisabledRunUnchanged guards the zero-overhead contract's semantic half:
// enabling observability must not change simulation results, and a disabled
// run must carry no obs payload.
func TestDisabledRunUnchanged(t *testing.T) {
	apps := workload.SocialNetworkApps()
	rc := machine.RunConfig{
		App:      apps[6],
		RPS:      20000,
		Duration: 60 * sim.Millisecond,
		Warmup:   10 * sim.Millisecond,
		Seed:     3,
	}
	off := machine.Run(machine.UManycoreConfig(), rc)
	if off.Obs != nil {
		t.Fatal("disabled run has an obs payload")
	}
	on := tracedRun(t, 3)
	if off.Latency != on.Latency || off.Submitted != on.Submitted ||
		off.Completed != on.Completed || off.Events != on.Events {
		t.Fatalf("tracing changed the simulation: off=%+v on=%+v", off.Latency, on.Latency)
	}
}
