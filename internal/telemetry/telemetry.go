// Package telemetry is the streaming observability layer on top of the
// internal/obs registry: a deterministic virtual-time sampler that turns
// every registered instrument into a fixed-capacity time series, a
// mergeable quantile sketch of the latency stream, an SLO watchdog that
// evaluates windowed rules and emits alert events, and export surfaces
// (time-series CSV, terminal sparklines). The package is deterministic
// code only: the live -serve endpoints that expose a finished run over
// HTTP (/metrics, /series.csv) live in internal/cli.
//
// Where internal/obs answers "where did this request's latency go?",
// telemetry answers "*when* did the tail happen?" — the paper's transient
// episodes (§3, §5: queueing bursts under MMPP arrivals, scheduler
// pathologies that a whole-run P99 averages away) become first-class,
// windowed simulator output.
//
// The layer inherits the repository's two hard observability constraints:
//
//   - Zero overhead when disabled. RunConfig.Telemetry == nil leaves the
//     machine holding a nil sampler pointer; the single instrumentation
//     site (latency observation) is a nil-guarded branch. Pinned by
//     TestTelemetryOffZeroAllocDelta.
//   - Determinism. Sampling happens on the simulation's virtual clock via
//     injected engine events — never wall time — so series, sketches and
//     alerts are bit-identical across repetitions and across 1-vs-N sweep
//     worker counts, and per-server runs merge worker-count-independently
//     (TestTelemetryDeterministicAcrossReps, TestTelemetryMergeWorkerIndependence).
package telemetry

import (
	"sort"

	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
)

// Options configures the telemetry layer for one run (set on
// machine.RunConfig.Telemetry; nil disables the layer at zero cost).
type Options struct {
	// Interval is the virtual-time sampling period (default 1ms): every
	// Interval the sampler snapshots all registered instruments and closes
	// one latency window.
	Interval sim.Time
	// Capacity bounds each series' ring buffer in points (default 4096).
	// When a run outlives Capacity×Interval, the oldest points drop — the
	// memory ceiling that makes million-request runs safe.
	Capacity int
	// Rules are the SLO watchdog rules evaluated at every tick (default
	// none; see DefaultRules).
	Rules []Rule
	// NoEngineVitals suppresses the sim.events / sim.pending series. Set it
	// when several samplers share one engine (the coupled fleet runs one per
	// server on its one engine): the engine belongs to none of them.
	NoEngineVitals bool
	// OnAlert, when set, subscribes to the watchdog's fire/resolve edges:
	// it is invoked synchronously inside the sampler tick that detected the
	// transition (virtual time, after the alert is recorded), so consumers
	// — the fleet's burn-triggered load shedder — react at tick boundaries
	// deterministically. The callback runs on whatever engine hosts the
	// sampler; cross-shard consumers must relay through the coupling fabric
	// rather than mutate remote state directly.
	OnAlert func(Alert)
}

// DefaultOptions returns the default sampling configuration (1ms interval,
// 4096-point rings, 1% sketch error, no watchdog rules).
func DefaultOptions() *Options {
	return &Options{}
}

func (o Options) normalized() Options {
	if o.Interval <= 0 {
		o.Interval = sim.Millisecond
	}
	if o.Capacity <= 0 {
		o.Capacity = 4096
	}
	return o
}

// Point is one sample of a series: the virtual tick time and the value.
type Point struct {
	T sim.Time
	V float64
}

// Series is one instrument's fixed-capacity time series. The ring drops
// the oldest points on overflow, so a series never exceeds its capacity
// regardless of run length.
type Series struct {
	Name string
	Kind obs.Kind
	// Dropped counts points evicted by the ring (0 when the run fit).
	Dropped uint64

	pts  []Point
	head int // index of the oldest point
	n    int
}

func newSeries(name string, kind obs.Kind, capacity int) *Series {
	if capacity <= 0 {
		capacity = 1
	}
	return &Series{Name: name, Kind: kind, pts: make([]Point, 0, capacity)}
}

func (s *Series) push(t sim.Time, v float64) {
	if len(s.pts) < cap(s.pts) {
		s.pts = append(s.pts, Point{t, v})
		return
	}
	s.pts[s.head] = Point{t, v}
	s.head = (s.head + 1) % len(s.pts)
	s.Dropped++
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.pts) }

// Points returns the retained points oldest-first (a copy).
func (s *Series) Points() []Point {
	out := make([]Point, len(s.pts))
	for i := range s.pts {
		out[i] = s.pts[(s.head+i)%len(s.pts)]
	}
	return out
}

// Last returns the most recent point (zero Point when empty).
func (s *Series) Last() Point {
	if len(s.pts) == 0 {
		return Point{}
	}
	return s.pts[(s.head+len(s.pts)-1)%len(s.pts)]
}

// Values returns just the retained values oldest-first (a copy) — the
// sparkline/dashboard input.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.pts))
	for i := range s.pts {
		out[i] = s.pts[(s.head+i)%len(s.pts)].V
	}
	return out
}

// Timeline is a run's set of series, keyed by name.
type Timeline struct {
	// Interval is the sampling period shared by every series.
	Interval sim.Time
	// Capacity is the per-series ring bound.
	Capacity int

	byName map[string]*Series
	names  []string // sorted; rebuilt lazily
	dirty  bool
}

// NewTimeline returns an empty timeline.
func NewTimeline(interval sim.Time, capacity int) *Timeline {
	return &Timeline{Interval: interval, Capacity: capacity, byName: make(map[string]*Series)}
}

// series returns the named series, creating it on first use.
func (tl *Timeline) series(name string, kind obs.Kind) *Series {
	s, ok := tl.byName[name]
	if !ok {
		s = newSeries(name, kind, tl.Capacity)
		tl.byName[name] = s
		tl.dirty = true
	}
	return s
}

// Push appends one point to the named series, creating it on first use.
func (tl *Timeline) Push(name string, kind obs.Kind, t sim.Time, v float64) {
	tl.series(name, kind).push(t, v)
}

// Get returns the named series, or nil.
func (tl *Timeline) Get(name string) *Series { return tl.byName[name] }

// Names returns all series names, sorted.
func (tl *Timeline) Names() []string {
	if tl.dirty || len(tl.names) != len(tl.byName) {
		tl.names = tl.names[:0]
		for name := range tl.byName {
			tl.names = append(tl.names, name)
		}
		sort.Strings(tl.names)
		tl.dirty = false
	}
	return tl.names
}

// Series returns every series in name order.
func (tl *Timeline) Series() []*Series {
	out := make([]*Series, 0, len(tl.byName))
	for _, name := range tl.Names() {
		out = append(out, tl.byName[name])
	}
	return out
}

// Run bundles one simulation's telemetry output. Every field is a
// deterministic function of the run's seed and configuration.
type Run struct {
	// Interval is the sampling period.
	Interval sim.Time
	// Timeline holds the per-instrument series.
	Timeline *Timeline
	// Sketch summarizes the measured end-to-end latency stream
	// (microseconds) with a bounded relative error — the streaming stand-in
	// for the exact Sample.
	Sketch *stats.Sketch
	// Alerts are the watchdog's fired/resolved events in virtual-time
	// order.
	Alerts []Alert
}

// Merge combines runs from independent simulations (fleet servers, sweep
// replicates) into one Run. Series merge pointwise by timestamp according
// to their kind (counters and gauges sum, means average, maxes take the
// max — the CombineSnapshots convention); sketches merge bucket-wise;
// alerts concatenate with Source set to the input index and re-sort by
// (At, Source, Rule). The result depends only on the input order — which
// callers fix to server order — never on worker count.
func Merge(runs []*Run) *Run {
	var live []*Run
	for _, r := range runs {
		if r != nil {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	out := &Run{Interval: live[0].Interval}

	// Union of series names.
	nameSet := make(map[string]obs.Kind)
	capacity := 0
	for _, r := range live {
		if r.Timeline == nil {
			continue
		}
		if r.Timeline.Capacity > capacity {
			capacity = r.Timeline.Capacity
		}
		for _, s := range r.Timeline.Series() {
			nameSet[s.Name] = s.Kind
		}
	}
	names := make([]string, 0, len(nameSet))
	for name := range nameSet {
		names = append(names, name)
	}
	sort.Strings(names)

	out.Timeline = NewTimeline(out.Interval, capacity)
	type acc struct {
		sum, max float64
		n        int
	}
	for _, name := range names {
		kind := nameSet[name]
		accs := make(map[sim.Time]*acc)
		var ts []sim.Time
		for _, r := range live {
			if r.Timeline == nil {
				continue
			}
			s := r.Timeline.Get(name)
			if s == nil {
				continue
			}
			for _, p := range s.Points() {
				a, ok := accs[p.T]
				if !ok {
					a = &acc{max: p.V}
					accs[p.T] = a
					ts = append(ts, p.T)
				}
				a.sum += p.V
				if p.V > a.max {
					a.max = p.V
				}
				a.n++
			}
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		ms := out.Timeline.series(name, kind)
		for _, t := range ts {
			a := accs[t]
			v := a.sum
			switch kind {
			case obs.KindMean:
				v = a.sum / float64(a.n)
			case obs.KindMax:
				v = a.max
			}
			ms.push(t, v)
		}
	}

	for i, r := range live {
		if r.Sketch != nil {
			if out.Sketch == nil {
				out.Sketch = stats.NewSketch(r.Sketch.Alpha())
			}
			out.Sketch.Merge(r.Sketch)
		}
		for _, a := range r.Alerts {
			a.Source = i
			out.Alerts = append(out.Alerts, a)
		}
	}
	sort.SliceStable(out.Alerts, func(i, j int) bool {
		a, b := out.Alerts[i], out.Alerts[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Rule < b.Rule
	})
	return out
}
