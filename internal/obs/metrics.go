package obs

import (
	"sort"

	"umanycore/internal/sim"
)

// Instrument naming convention (see OBSERVABILITY.md): dotted lowercase
// "component.object.metric", e.g. "machine.queue.depth", "sim.heap.peak",
// "rpcnet.storage.retransmits". Registries hand out instruments on first
// use; hot paths resolve their instruments once up front and never touch
// the registry maps per event.

// Kind classifies how a metric value merges across runs.
type Kind uint8

// Metric kinds.
const (
	// KindCounter is a monotonic total; merges by summing.
	KindCounter Kind = iota
	// KindGauge is an additive level or total; merges by summing.
	KindGauge
	// KindMean is a time- or event-weighted mean; merges by averaging
	// (fleet servers carry equal load, so equal weights are exact there).
	KindMean
	// KindMax is a high-water mark; merges by max.
	KindMax
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindMean:
		return "mean"
	case KindMax:
		return "max"
	default:
		return "kind?"
	}
}

// Counter is a monotonically increasing total.
type Counter struct{ n float64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d float64) { c.n += d }

// Value returns the total.
func (c *Counter) Value() float64 { return c.n }

// Gauge is a last-write-wins level.
type Gauge struct{ v float64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the stored level.
func (g *Gauge) Value() float64 { return g.v }

// TimeHist is a time-weighted histogram of a piecewise-constant value
// (queue depth, congestion window): each Observe(now, v) closes the previous
// value's interval at now and starts v's. Mean weights every value by how
// long it held, the correct aggregate for sampled-on-change series.
type TimeHist struct {
	start, last sim.Time
	cur         float64
	area        float64 // integral of value over time, in value·ps
	max         float64
	n           uint64
	open        bool
}

// Observe records that the tracked value became v at virtual time now.
func (h *TimeHist) Observe(now sim.Time, v float64) {
	if !h.open {
		h.start, h.last, h.cur, h.open = now, now, v, true
	} else {
		h.area += h.cur * float64(now-h.last)
		h.last, h.cur = now, v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// Integral returns the value-time integral (in value·ps) over [first
// observation, now], including the currently held value's open segment.
// Differencing integrals at two sample points yields the exact windowed
// time-weighted mean — the telemetry sampler's per-interval series.
func (h *TimeHist) Integral(now sim.Time) float64 {
	if !h.open {
		return 0
	}
	return h.area + h.cur*float64(now-h.last)
}

// Mean returns the time-weighted mean over [first observation, end].
func (h *TimeHist) Mean(end sim.Time) float64 {
	if !h.open || end <= h.start {
		return 0
	}
	area := h.area + h.cur*float64(end-h.last)
	return area / float64(end-h.start)
}

// Max returns the largest observed value.
func (h *TimeHist) Max() float64 { return h.max }

// N returns the number of observations.
func (h *TimeHist) N() uint64 { return h.n }

// Registry owns a run's named instruments. Like sim.Engine.Rand, the same
// name always returns the same instrument; distinct names are independent.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*TimeHist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*TimeHist),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// TimeHist returns the named time-weighted histogram, creating it on first
// use.
func (r *Registry) TimeHist(name string) *TimeHist {
	h, ok := r.hists[name]
	if !ok {
		h = &TimeHist{}
		r.hists[name] = h
	}
	return h
}

// LookupCounter returns the named counter without creating it.
func (r *Registry) LookupCounter(name string) (*Counter, bool) {
	c, ok := r.counters[name]
	return c, ok
}

// LookupGauge returns the named gauge without creating it.
func (r *Registry) LookupGauge(name string) (*Gauge, bool) {
	g, ok := r.gauges[name]
	return g, ok
}

// LookupTimeHist returns the named time-weighted histogram without
// creating it.
func (r *Registry) LookupTimeHist(name string) (*TimeHist, bool) {
	h, ok := r.hists[name]
	return h, ok
}

// Size returns the number of registered instruments. The telemetry sampler
// polls it to detect lazily created instruments between ticks without
// re-walking the maps.
func (r *Registry) Size() int {
	return len(r.counters) + len(r.gauges) + len(r.hists)
}

// Visit calls the per-class callbacks for every registered instrument.
// Iteration order is unspecified (map order); callers needing determinism
// sort the collected names themselves.
func (r *Registry) Visit(counter func(string, *Counter), gauge func(string, *Gauge), hist func(string, *TimeHist)) {
	if counter != nil {
		for name, c := range r.counters {
			counter(name, c)
		}
	}
	if gauge != nil {
		for name, g := range r.gauges {
			gauge(name, g)
		}
	}
	if hist != nil {
		for name, h := range r.hists {
			hist(name, h)
		}
	}
}

// Metric is one named value of a snapshot.
type Metric struct {
	Name  string
	Kind  Kind
	Value float64
}

// Snapshot is a registry's finalized values in stable (name-sorted) order,
// so two identical runs produce DeepEqual snapshots.
type Snapshot []Metric

// Get returns the named metric's value and whether it exists.
func (s Snapshot) Get(name string) (float64, bool) {
	for _, m := range s {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Snapshot finalizes the registry at virtual time end. TimeHists expand into
// two metrics, "<name>.mean" and "<name>.max".
func (r *Registry) Snapshot(end sim.Time) Snapshot {
	var out Snapshot
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range r.hists {
		out = append(out,
			Metric{Name: name + ".mean", Kind: KindMean, Value: h.Mean(end)},
			Metric{Name: name + ".max", Kind: KindMax, Value: h.Max()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CombineSnapshots merges snapshots from independent runs by each metric's
// kind: counters and gauges sum, means average with equal weight, maxes take
// the max. The output is name-sorted, so it is independent of input order.
func CombineSnapshots(snaps []Snapshot) Snapshot {
	if len(snaps) == 0 {
		return nil
	}
	type acc struct {
		kind Kind
		sum  float64
		max  float64
		n    int
	}
	accs := make(map[string]*acc)
	for _, s := range snaps {
		for _, m := range s {
			a, ok := accs[m.Name]
			if !ok {
				a = &acc{kind: m.Kind, max: m.Value}
				accs[m.Name] = a
			}
			a.sum += m.Value
			if m.Value > a.max {
				a.max = m.Value
			}
			a.n++
		}
	}
	names := make([]string, 0, len(accs))
	for name := range accs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(Snapshot, 0, len(names))
	for _, name := range names {
		a := accs[name]
		v := a.sum
		switch a.kind {
		case KindMean:
			v = a.sum / float64(a.n)
		case KindMax:
			v = a.max
		}
		out = append(out, Metric{Name: name, Kind: a.kind, Value: v})
	}
	return out
}
