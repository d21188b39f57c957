package telemetry

import (
	"reflect"
	"strings"
	"testing"

	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
)

func TestSeriesRingEviction(t *testing.T) {
	tl := NewTimeline(sim.Millisecond, 4)
	for i := 0; i < 10; i++ {
		tl.Push("x", obs.KindGauge, sim.Time(i)*sim.Millisecond, float64(i))
	}
	s := tl.Get("x")
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	if s.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", s.Dropped)
	}
	want := []float64{6, 7, 8, 9}
	if got := s.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("values = %v, want %v", got, want)
	}
	pts := s.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatalf("points not time-ordered: %v", pts)
		}
	}
	if last := s.Last(); last.V != 9 {
		t.Fatalf("last = %+v, want V=9", last)
	}
}

func TestTimelineNamesSorted(t *testing.T) {
	tl := NewTimeline(sim.Millisecond, 8)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		tl.Push(n, obs.KindCounter, sim.Millisecond, 1)
	}
	want := []string{"alpha", "mid", "zeta"}
	if got := tl.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	tl.Push("beta", obs.KindCounter, sim.Millisecond, 1)
	want = []string{"alpha", "beta", "mid", "zeta"}
	if got := tl.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names after growth = %v, want %v", got, want)
	}
}

// TestMergeKindSemantics pins the pointwise merge rules: counters and
// gauges sum, means average, maxes take the max — CombineSnapshots'
// convention applied per timestamp.
func TestMergeKindSemantics(t *testing.T) {
	mk := func(v float64) *Run {
		tl := NewTimeline(sim.Millisecond, 8)
		tl.Push("c", obs.KindCounter, sim.Millisecond, v)
		tl.Push("g", obs.KindGauge, sim.Millisecond, v)
		tl.Push("m", obs.KindMean, sim.Millisecond, v)
		tl.Push("x", obs.KindMax, sim.Millisecond, v)
		return &Run{Interval: sim.Millisecond, Timeline: tl}
	}
	merged := Merge([]*Run{mk(2), mk(4), nil})
	for name, want := range map[string]float64{"c": 6, "g": 6, "m": 3, "x": 4} {
		if got := merged.Timeline.Get(name).Last().V; got != want {
			t.Errorf("merged %s = %v, want %v", name, got, want)
		}
	}
	// A timestamp present in only one input carries that input's value.
	one := mk(5)
	one.Timeline.Push("c", obs.KindCounter, 2*sim.Millisecond, 7)
	merged = Merge([]*Run{one, mk(1)})
	pts := merged.Timeline.Get("c").Points()
	if len(pts) != 2 || pts[1].V != 7 {
		t.Fatalf("lone-timestamp merge = %v", pts)
	}
}

func TestMergeSketchAndAlerts(t *testing.T) {
	mk := func(vals []float64, alerts []Alert) *Run {
		sk := stats.NewSketch(stats.DefaultSketchAlpha)
		for _, v := range vals {
			sk.Add(v)
		}
		return &Run{Interval: sim.Millisecond, Sketch: sk, Alerts: alerts}
	}
	a := mk([]float64{1, 2}, []Alert{{Rule: "slo.p99", At: 3 * sim.Millisecond, Firing: true}})
	b := mk([]float64{3}, []Alert{{Rule: "slo.burn", At: sim.Millisecond, Firing: true}})
	merged := Merge([]*Run{a, b})
	if merged.Sketch.N() != 3 {
		t.Fatalf("merged sketch n = %d, want 3", merged.Sketch.N())
	}
	if len(merged.Alerts) != 2 {
		t.Fatalf("merged alerts = %d, want 2", len(merged.Alerts))
	}
	// Re-sorted by time; Source records the contributing input.
	if merged.Alerts[0].Rule != "slo.burn" || merged.Alerts[0].Source != 1 {
		t.Fatalf("alert order/source wrong: %+v", merged.Alerts)
	}
	if got := merged.AlertNames(); !reflect.DeepEqual(got, []string{"slo.burn", "slo.p99"}) {
		t.Fatalf("alert names = %v", got)
	}
}

func TestMergeEmpty(t *testing.T) {
	if Merge(nil) != nil || Merge([]*Run{nil, nil}) != nil {
		t.Fatal("merge of no runs should be nil")
	}
}

func TestWriteCSVStable(t *testing.T) {
	tl := NewTimeline(sim.Millisecond, 8)
	tl.Push("b.series", obs.KindGauge, sim.Millisecond, 1.5)
	tl.Push("a.series", obs.KindCounter, sim.Millisecond, 2)
	tl.Push("a.series", obs.KindCounter, 2*sim.Millisecond, 4)
	r := &Run{Interval: sim.Millisecond, Timeline: tl}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "series,kind,t_us,value\n" +
		"a.series,counter,1000,2\n" +
		"a.series,counter,2000,4\n" +
		"b.series,gauge,1000,1.5\n"
	if sb.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestDashboardRenders(t *testing.T) {
	tl := NewTimeline(sim.Millisecond, 8)
	for i := 0; i < 8; i++ {
		tl.Push("machine.queue.depth.mean", obs.KindMean, sim.Time(i+1)*sim.Millisecond, float64(i%3))
	}
	sk := stats.NewSketch(stats.DefaultSketchAlpha)
	sk.Add(100)
	r := &Run{
		Interval: sim.Millisecond,
		Timeline: tl,
		Sketch:   sk,
		Alerts:   []Alert{{Rule: "slo.p99", At: 4 * sim.Millisecond, Value: 900, Threshold: 500, Firing: true}},
	}
	var sb strings.Builder
	r.Dashboard(&sb, 24)
	out := sb.String()
	for _, want := range []string{"machine.queue.depth.mean", "slo.p99", "FIRING", "latency sketch"} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q:\n%s", want, out)
		}
	}
	var empty strings.Builder
	(*Run)(nil).Dashboard(&empty, 10)
	if !strings.Contains(empty.String(), "no data") {
		t.Errorf("nil-run dashboard = %q", empty.String())
	}
}
