package cli

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
	"umanycore/internal/telemetry"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeEndpoints(t *testing.T) {
	srv, err := listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	Publish(nil)
	if code, _ := get(t, base+"/series.csv"); code != http.StatusNotFound {
		t.Fatalf("series.csv with no run = %d, want 404", code)
	}

	tl := telemetry.NewTimeline(sim.Millisecond, 8)
	tl.Push("machine.admit.rq", obs.KindCounter, sim.Millisecond, 12)
	tl.Push("sim.pending", obs.KindGauge, sim.Millisecond, 3)
	sk := stats.NewSketch(stats.DefaultSketchAlpha)
	for i := 1; i <= 100; i++ {
		sk.Add(float64(i))
	}
	Publish(&telemetry.Run{Interval: sim.Millisecond, Timeline: tl, Sketch: sk,
		Alerts: []telemetry.Alert{{Rule: "slo.p99", At: sim.Millisecond, Firing: true}}})

	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"um_machine_admit_rq 12",
		"um_sim_pending 3",
		"um_latency_sketch_count 100",
		`um_latency_us{quantile="0.99"}`,
		"um_watchdog_alerts_total 1",
		"um_sweep_jobs_done",
		"# TYPE um_machine_admit_rq counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, base+"/progress")
	if code != 200 {
		t.Fatalf("progress = %d", code)
	}
	var prog struct {
		Done, Total int64
		ElapsedS    float64 `json:"elapsed_s"`
		EtaS        float64 `json:"eta_s"`
	}
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("progress json %q: %v", body, err)
	}

	code, body = get(t, base+"/series.csv")
	if code != 200 || !strings.HasPrefix(body, "series,kind,t_us,value\n") {
		t.Fatalf("series.csv = %d %q", code, body)
	}
	if !strings.Contains(body, "machine.admit.rq,counter,1000,12") {
		t.Errorf("series.csv missing row:\n%s", body)
	}

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline = %d", code)
	}
}

// metricsCell is a sweep cell with a fixed key that computes &metricsResult{N: n}.
type metricsCell struct {
	key []byte
	n   int
}

type metricsResult struct{ N int }

func (c metricsCell) Key() []byte         { return c.key }
func (c metricsCell) Run() *metricsResult { return &metricsResult{c.n} }

// TestMetricsCacheCountersMatchCache: /metrics reports the installed cell
// cache's own counters, so an intact entry whose payload is not the cell's
// result shows as invalidated there exactly as on umbench's [cache …] line,
// never as a hit.
func TestMetricsCacheCountersMatchCache(t *testing.T) {
	c, err := sweepcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.SetLogf(func(string, ...any) {})
	sweep.SetCache(c)
	t.Cleanup(func() { sweep.SetCache(nil) })

	pre := sweepcache.NewKey("test/metrics").Preimage()
	c.Store(pre, []byte(`{}`)) // checksum valid; decodes, but re-encodes as {"N":0}
	got := sweep.MapCached(1, []metricsCell{{pre, 7}})
	if got[0].N != 7 {
		t.Fatalf("cell = %+v, want the recomputed 7", got[0])
	}
	s := c.Snapshot()
	if s.Hits != 0 || s.Misses != 1 || s.Invalid != 1 {
		t.Fatalf("cache counters %+v, want 0 hits, 1 miss, 1 invalidated", s)
	}
	rec := httptest.NewRecorder()
	handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{"um_sweepcache_hits 0\n", "um_sweepcache_misses 1\n", "um_sweepcache_invalid 1\n"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, rec.Body.String())
		}
	}
}

func TestParseServeAddr(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		ok       bool
	}{
		{":9090", ":9090", true},
		{"localhost:9090", "localhost:9090", true},
		{"9090", ":9090", true},
		{"", "", false},
		{"nonsense", "", false},
	} {
		got, err := ParseServeAddr(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseServeAddr(%q) = %q, %v; want %q ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
