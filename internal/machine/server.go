package machine

import (
	"umanycore/internal/dist"
	"umanycore/internal/icn"
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/telemetry"
	"umanycore/internal/workload"
)

// EngineRole says what else runs on a server's engine, which decides what
// the server reports about that engine: its fired-event count
// (Result.Events), the kernel metrics (sim.events, sim.heap.peak) and the
// telemetry vitals series (sim.events, sim.pending).
type EngineRole int

// Engine roles.
const (
	// OwnEngine: the server runs alone on its engine (Run), so everything
	// engine-level is its own and is reported.
	OwnEngine EngineRole = iota
	// SharedEngine: the engine hosts every server of a fleet (the coupled
	// fleet). Nothing engine-level belongs to one server, so nothing is
	// reported.
	SharedEngine
)

// Server is one machine with its run instrumentation attached. It is the
// single harness behind Run and every coupled-fleet server: both build,
// instrument and finish a server here, so they cannot drift apart.
type Server struct {
	*Machine
	rc   RunConfig
	role EngineRole
}

// NewServer builds the server for the normalized rc on eng: a placed
// machine hosting exactly the hosted services when hosted is non-nil, a
// mixed-root machine when rc.Mix is set, and a single-root machine
// otherwise. It opens the measurement window at rc.Warmup and attaches the
// observability layer and telemetry sampler rc asks for.
func NewServer(eng *sim.Engine, cfg Config, rc RunConfig, hosted []int, role EngineRole) *Server {
	var m *Machine
	switch {
	case hosted != nil:
		m = NewPlaced(eng, cfg, rc.App.Catalog, hosted)
	case len(rc.Mix) > 0:
		m = NewMix(eng, cfg, rc.App.Catalog, rc.Mix)
	default:
		m = New(eng, cfg, rc.App)
	}
	m.SetMeasureFrom(rc.Warmup)

	var col *obs.Collector
	var reg *obs.Registry
	if rc.Obs != nil {
		if rc.Obs.Trace {
			col = obs.NewCollector()
		}
		if rc.Obs.Metrics {
			reg = obs.NewRegistry()
		}
	}
	if rc.Telemetry != nil {
		// The sampler snapshots the metrics registry, so telemetry implies
		// one even when Obs didn't ask for it.
		if reg == nil {
			reg = obs.NewRegistry()
		}
		topt := *rc.Telemetry
		topt.NoEngineVitals = role == SharedEngine
		m.EnableTelemetry(telemetry.Start(eng, reg, rc.Duration+rc.Drain, topt))
	}
	if col != nil || reg != nil {
		m.EnableObs(col, reg)
	}
	return &Server{Machine: m, rc: rc, role: role}
}

// CheckHosting reports why the server NewServer would build for cfg, rc and
// hosted cannot give every service its requests reach a pinned domain, or
// nil. Config.Validate checks the config alone, this against the workload;
// construction panics with the same error before any event runs.
func CheckHosting(cfg Config, rc RunConfig, hosted []int) error {
	rc = rc.Normalized()
	mix := rc.Mix
	if len(mix) == 0 {
		mix = []workload.MixEntry{{Root: rc.App.Root, Weight: 1}}
	}
	return cfg.checkHosting(len(hostedWeights(rc.App.Catalog, mix, hosted)), hosted == nil)
}

// Finish assembles the server's Result once its engine has run: the plain
// statistics, the end-of-run machine metrics (plus the kernel's on an owned
// engine), the observability snapshot and the telemetry run.
func (s *Server) Finish() *Result {
	m, eng, rc := s.Machine, s.eng, s.rc
	res := &Result{
		Machine:     m.cfg.Name,
		App:         rc.App.Name,
		RPS:         rc.RPS,
		Latency:     m.Latency.Summarize(),
		Sample:      &m.Latency,
		PerRoot:     perRootSummaries(m),
		TailToAvg:   m.Latency.TailToAvg(),
		Submitted:   m.Submitted,
		Completed:   m.Completed,
		Rejected:    m.Rejected,
		Unfinished:  int64(m.Submitted) - int64(m.Completed) - int64(m.rejectedRoots),
		Invocations: m.Invocations,
		Utilization: m.Utilization(rc.Duration),
		MeanHops:    m.MeanHops(),
		MaxLinkUtil: icn.MaxUtilization(m.topo, rc.Duration),
	}
	if s.role == OwnEngine {
		res.Events = eng.Fired()
	}
	if m.mx != nil {
		m.finishMachineMetrics(rc.Duration)
		if s.role == OwnEngine {
			m.mx.reg.Counter("sim.events").Add(float64(eng.Fired()))
			m.mx.reg.Gauge("sim.heap.peak").Set(float64(eng.MaxPending()))
		}
	}
	if rc.Obs != nil {
		res.Obs = &obs.Run{}
		if m.trace != nil {
			res.Obs.Spans = m.trace.Spans()
		}
		if m.mx != nil {
			res.Obs.Metrics = m.mx.reg.Snapshot(eng.Now())
		}
	}
	if m.tele != nil {
		res.Telemetry = m.tele.Finish(eng.Now())
	}
	return res
}

func perRootSummaries(m *Machine) map[int]stats.Summary {
	out := make(map[int]stats.Summary, len(m.LatencyByRoot))
	for root, s := range m.LatencyByRoot {
		out[root] = s.Summarize()
	}
	return out
}

// Arrivals schedules rc's arrival process on eng until the arrival window
// closes. With rc.Replay set, each bound trace arrival calls submitAs with
// its root and demand; otherwise the open-loop process at rate rps calls
// submit. Run passes its machine's submit methods; the fleet dispatcher
// passes closures that route each arrival to a server, drawing the same gap
// sequence at the fleet's total rate.
func Arrivals(eng *sim.Engine, rc RunConfig, rps float64, submit func(), submitAs func(root int, demand float64)) {
	if rc.Replay != nil {
		rc.Replay.Schedule(eng, rc.Duration, submitAs)
		return
	}
	gap := arrivalGap(eng, rc, rps)
	var schedule func()
	schedule = func() {
		if eng.Now() >= rc.Duration {
			return
		}
		submit()
		eng.After(gap(), schedule)
	}
	eng.At(gap(), schedule)
}

// arrivalGap returns the open-loop inter-arrival sampler for rc's arrival
// process at rate rps, drawing from eng's "arrivals" stream. The stream is
// resolved once here: Engine.Reset re-seeds it in place, so the sampler
// stays valid.
func arrivalGap(eng *sim.Engine, rc RunConfig, rps float64) func() sim.Time {
	r := eng.Rand("arrivals")
	switch rc.Arrivals {
	case BurstyArrivals:
		mmpp := workload.BurstyArrivals(rps)
		return func() sim.Time {
			return sim.FromSeconds(mmpp.NextGap(r))
		}
	default:
		return func() sim.Time {
			return sim.FromSeconds(dist.Poisson{Rate: rps}.NextGap(r))
		}
	}
}
