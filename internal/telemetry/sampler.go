package telemetry

import (
	"sort"

	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
)

// Sampler drives one run's streaming telemetry: a chain of periodic
// snapshot events injected into the simulation engine. Every tick it
// records each registered instrument into the timeline, closes one latency
// window (feeding the windowed series and the watchdog), and re-arms
// itself until the sampling horizon.
//
// The sampler reads simulator state but never mutates it, so attaching it
// cannot change a run's results (TestTelemetryRunUnchanged); everything it
// records is keyed to the virtual clock, so its output is bit-identical
// across repetitions and sweep worker counts.
type Sampler struct {
	eng      *sim.Engine
	reg      *obs.Registry
	interval sim.Time
	horizon  sim.Time
	tl       *Timeline
	wd       *watchdog

	// sketch accumulates the whole run's measured latencies; win holds the
	// current window's and resets every tick.
	sketch *stats.Sketch
	win    *stats.Sketch

	// readers is the cached, name-sorted instrument list; rebuilt when the
	// registry grows (instruments are created lazily on first use).
	readers   []reader
	lastSize  int
	lastTick  sim.Time
	integrals map[string]float64 // per-TimeHist cumulative integral at the last tick
	finished  bool
	// noEngineVitals mirrors Options.NoEngineVitals (samplers sharing one
	// engine record its vitals once).
	noEngineVitals bool
}

// reader snapshots one instrument into the timeline.
type reader struct {
	name string
	kind obs.Kind
	read func(now sim.Time) float64
}

// Start attaches a sampler to the engine and registry and schedules its
// tick chain: one snapshot every opts.Interval of virtual time, up to
// horizon (the run's Duration+Drain). Call before the engine runs.
func Start(eng *sim.Engine, reg *obs.Registry, horizon sim.Time, opts Options) *Sampler {
	o := opts.normalized()
	s := &Sampler{
		eng:            eng,
		reg:            reg,
		interval:       o.Interval,
		horizon:        horizon,
		tl:             NewTimeline(o.Interval, o.Capacity),
		wd:             newWatchdog(reg, o.Rules, o.OnAlert),
		sketch:         stats.NewSketch(o.SketchAlpha),
		win:            stats.NewSketch(o.SketchAlpha),
		integrals:      make(map[string]float64),
		noEngineVitals: o.NoEngineVitals,
	}
	var tick func()
	tick = func() {
		s.sample(eng.Now())
		if next := eng.Now() + s.interval; next <= s.horizon {
			eng.At(next, tick)
		}
	}
	if s.interval <= horizon {
		eng.At(eng.Now()+s.interval, tick)
	}
	return s
}

// Firing reports whether the named watchdog rule is currently firing —
// the polling companion to Options.OnAlert for barrier-time consumers.
func (s *Sampler) Firing(rule string) bool { return s.wd.firing(rule) }

// ObserveLatency feeds one measured end-to-end latency (microseconds) at
// the moment its request completes. The machine calls it from the same
// completion event that records the exact sample, so sketch and sample see
// identical streams.
func (s *Sampler) ObserveLatency(us float64) {
	s.sketch.Add(us)
	s.win.Add(us)
}

// rebuildReaders refreshes the cached instrument list from the registry.
func (s *Sampler) rebuildReaders() {
	s.readers = s.readers[:0]
	s.reg.Visit(
		func(name string, c *obs.Counter) {
			s.readers = append(s.readers, reader{name, obs.KindCounter,
				func(sim.Time) float64 { return c.Value() }})
		},
		func(name string, g *obs.Gauge) {
			s.readers = append(s.readers, reader{name, obs.KindGauge,
				func(sim.Time) float64 { return g.Value() }})
		},
		func(name string, h *obs.TimeHist) {
			// Time-weighted histograms stream as their *windowed* mean —
			// the exact time average over the interval that just closed,
			// computed by differencing integrals (e.g. mean queue depth per
			// window: the transient the whole-run mean averages away).
			key := name + ".mean"
			s.readers = append(s.readers, reader{key, obs.KindMean,
				func(now sim.Time) float64 {
					integral := h.Integral(now)
					win := integral - s.integrals[key]
					s.integrals[key] = integral
					dt := now - s.lastTick
					if dt <= 0 {
						return 0
					}
					return win / float64(dt)
				}})
		},
	)
	sort.Slice(s.readers, func(i, j int) bool { return s.readers[i].name < s.readers[j].name })
	s.lastSize = s.reg.Size()
}

// sample records one tick at virtual time now: every instrument, the
// engine's own vitals, the latency window's summary series, and a watchdog
// pass over the closed window.
func (s *Sampler) sample(now sim.Time) {
	if s.reg.Size() != s.lastSize || s.readers == nil {
		s.rebuildReaders()
	}
	for _, r := range s.readers {
		s.tl.Push(r.name, r.kind, now, r.read(now))
	}

	// Engine vitals: cumulative fired events and the pending-event level —
	// the live view of sim.events / sim.heap.peak.
	if !s.noEngineVitals {
		s.tl.Push("sim.events", obs.KindCounter, now, float64(s.eng.Fired()))
		s.tl.Push("sim.pending", obs.KindGauge, now, float64(s.eng.Pending()))
	}

	// Latency window summary. Counts sum across servers; quantiles merge
	// conservatively (KindMax); means average.
	if s.win.N() > 0 {
		s.tl.Push("telemetry.latency.count", obs.KindCounter, now, float64(s.win.N()))
		s.tl.Push("telemetry.latency.mean", obs.KindMean, now, s.win.Mean())
		s.tl.Push("telemetry.latency.p50", obs.KindMax, now, s.win.Quantile(0.5))
		s.tl.Push("telemetry.latency.p99", obs.KindMax, now, s.win.Quantile(0.99))
	}

	window := now - s.lastTick
	if window <= 0 {
		window = s.interval
	}
	s.wd.tick(now, window, s.win)

	s.win.Reset()
	s.lastTick = now
}

// Finish closes the final partial window (when the engine stopped between
// ticks) and returns the run's telemetry. Idempotent.
func (s *Sampler) Finish(end sim.Time) *Run {
	if !s.finished {
		if end > s.lastTick {
			s.sample(end)
		}
		s.finished = true
	}
	return &Run{
		Interval: s.interval,
		Timeline: s.tl,
		Sketch:   s.sketch,
		Alerts:   s.wd.alerts,
	}
}
