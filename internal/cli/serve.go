package cli

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"umanycore/internal/stats"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
	"umanycore/internal/telemetry"
)

// The serving layer is the -serve flag's live endpoints, and the one
// deliberately non-deterministic corner of the observability stack: it
// reads wall clocks and process-global atomics so a human can watch a long
// figure regeneration from a browser or curl loop. It lives here, in the
// CLI layer, so only the commands link net/http; internal/telemetry and
// everything below it stay deterministic code. Nothing here feeds back into
// run results — the boundary is one-way. A command publishes a finished
// (deterministic) telemetry run via Publish; the handlers only ever read
// that snapshot plus the sweep progress counters.

// published holds the most recently finished *Run, swapped in atomically so
// handlers never see a half-built run.
var published atomic.Value // *telemetry.Run

// serveStart anchors the ETA estimate.
var serveStart atomic.Int64 // unix nanos

// Publish makes run the snapshot served by /metrics and /series.csv. Safe
// to call from the run loop while the server is live; nil clears it.
func Publish(run *telemetry.Run) {
	published.Store(&run) // wrap: atomic.Value forbids storing nil directly
}

// Published returns the last Publish'd run, or nil.
func Published() *telemetry.Run {
	if p, ok := published.Load().(**telemetry.Run); ok {
		return *p
	}
	return nil
}

// Serve starts the live endpoints on a -serve flag value and announces them
// on stderr as the command prog's. An empty value serves nothing.
func Serve(prog, flagValue string) error {
	if flagValue == "" {
		return nil
	}
	addr, err := ParseServeAddr(flagValue)
	if err != nil {
		return err
	}
	srv, err := listen(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: serving /metrics /healthz /progress /series.csv /debug/pprof on %s\n", prog, srv.Addr)
	return nil
}

// listen starts the live observability endpoint on addr (e.g. ":9090"):
//
//	/metrics     Prometheus text exposition of the published run + progress
//	/healthz     liveness ("ok")
//	/progress    JSON {done, total, elapsed_s, eta_s}
//	/series.csv  published run's time series (long form)
//	/debug/pprof/...  net/http/pprof
//
// It returns once the listener is bound, so scrapes cannot race startup;
// the server then runs until the process exits (callers that need shutdown
// keep the returned *http.Server). Errors are bind errors.
func listen(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	serveStart.Store(time.Now().UnixNano())
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/progress", handleProgress)
	mux.HandleFunc("/series.csv", handleSeriesCSV)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: ln.Addr().String(), Handler: mux}
	go srv.Serve(ln)
	return srv, nil
}

// promName maps a dotted instrument name onto the Prometheus grammar
// ([a-zA-Z_:][a-zA-Z0-9_:]*).
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return "um_" + b.String()
}

// handleMetrics writes the Prometheus text exposition: every series' last
// value from the published run, the run's latency sketch quantiles, alert
// count, and the sweep progress counters.
func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	done, cached, total := sweep.ProgressDetail()
	writeProm(&b, "um_sweep_jobs_done", "counter", "Sweep jobs completed.", float64(done))
	writeProm(&b, "um_sweep_jobs_cached", "counter", "Sweep jobs satisfied from the cell cache.", float64(cached))
	writeProm(&b, "um_sweep_jobs_total", "gauge", "Sweep jobs scheduled.", float64(total))

	// The installed cache's own counters, the same ones umbench's [cache …]
	// line prints; zeros when no cache is installed.
	var cs sweepcache.Stats
	if c, ok := sweep.ActiveCache().(*sweepcache.Cache); ok {
		cs = c.Snapshot()
	}
	writeProm(&b, "um_sweepcache_hits", "counter", "Cell cache hits.", float64(cs.Hits))
	writeProm(&b, "um_sweepcache_misses", "counter", "Cell cache misses.", float64(cs.Misses))
	writeProm(&b, "um_sweepcache_invalid", "counter", "Cell cache entries invalidated (corrupt/stale/not a result).", float64(cs.Invalid))

	if r := Published(); r != nil {
		if r.Timeline != nil {
			// Stable name order so scrapes diff cleanly.
			names := r.Timeline.Names()
			sorted := make([]string, len(names))
			copy(sorted, names)
			sort.Strings(sorted)
			for _, name := range sorted {
				s := r.Timeline.Get(name)
				if s == nil || s.Len() == 0 {
					continue
				}
				typ := "gauge"
				if s.Kind.String() == "counter" {
					typ = "counter"
				}
				writeProm(&b, promName(name), typ, "Virtual-time series (last sample).", s.Last().V)
			}
		}
		if r.Sketch != nil && r.Sketch.N() > 0 {
			writeProm(&b, "um_latency_sketch_count", "counter", "Measured requests in the latency sketch.", float64(r.Sketch.N()))
			for _, q := range []struct {
				label string
				v     float64
			}{
				{"0.5", r.Sketch.Quantile(0.5)},
				{"0.99", r.Sketch.P99()},
				{"0.999", r.Sketch.Quantile(0.999)},
			} {
				fmt.Fprintf(&b, "um_latency_us{quantile=%q} %s\n", q.label, stats.FormatFloat(q.v))
			}
		}
		writeProm(&b, "um_watchdog_alerts_total", "counter", "Watchdog fire/resolve transitions.", float64(len(r.Alerts)))
	}
	w.Write([]byte(b.String()))
}

func writeProm(b *strings.Builder, name, typ, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, stats.FormatFloat(v))
}

// handleProgress reports sweep progress plus a wall-clock ETA extrapolated
// from the jobs completed so far.
func handleProgress(w http.ResponseWriter, _ *http.Request) {
	done, cached, total := sweep.ProgressDetail()
	elapsed := time.Duration(time.Now().UnixNano() - serveStart.Load()).Seconds()
	eta := etaSeconds(done, cached, total, elapsed)
	var o stats.JSONObject
	o.Int("done", done).
		Int("cached", cached).
		Int("total", total).
		FloatFixed("elapsed_s", elapsed, 3).
		FloatFixed("eta_s", eta, 3)
	w.Header().Set("Content-Type", "application/json")
	w.Write(o.Bytes())
	w.Write([]byte("\n"))
}

// etaSeconds extrapolates remaining wall time from the cells computed so
// far. Cache hits finish in microseconds, so they carry no information
// about how long a simulated cell takes: the per-cell rate divides elapsed
// time by *computed* cells only (done - cached), and the remaining cells
// are costed at that rate (a pessimistic bound — some may turn out to be
// hits too, and then the ETA drops as they land). Returns -1 (unknown)
// until at least one cell has actually been computed, and 0 once every
// scheduled cell is done.
func etaSeconds(done, cached, total int64, elapsed float64) float64 {
	remaining := total - done
	if remaining <= 0 && total > 0 {
		return 0
	}
	computed := done - cached
	if computed <= 0 || remaining <= 0 {
		return -1
	}
	return elapsed / float64(computed) * float64(remaining)
}

func handleSeriesCSV(w http.ResponseWriter, _ *http.Request) {
	r := Published()
	if r == nil {
		http.Error(w, "no run published yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	r.WriteCSV(w)
}

// ParseServeAddr splits a -serve flag value. Accepts ":9090",
// "localhost:9090", "9090".
func ParseServeAddr(v string) (string, error) {
	if v == "" {
		return "", fmt.Errorf("empty serve address")
	}
	if !strings.Contains(v, ":") {
		if _, err := strconv.Atoi(v); err != nil {
			return "", fmt.Errorf("serve address %q: want :port or host:port", v)
		}
		return ":" + v, nil
	}
	return v, nil
}
