package svcgraph

import (
	"errors"
	"fmt"
	"sort"

	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// Arrival is one bound replay arrival: a typed root request at a fixed
// virtual time with a compute-demand multiplier.
type Arrival struct {
	// At is the arrival's virtual time.
	At sim.Time
	// Root is the request tree's root service ID.
	Root int
	// Demand scales every compute sample of the request's tree: the
	// record's CPU demand (duration × cpu_util) over the root's expected
	// tree CPU, so a request recorded at 2× the mean demand runs 2× the
	// sampled service times. Zero means unscaled.
	Demand float64
}

// Replay is a trace bound to an application — the open-loop arrival
// schedule a machine or fleet replays. It is plain data, canonically
// encodable in sweep-cache keys.
type Replay struct {
	Arrivals []Arrival
	// Records is the number of trace records behind the arrivals (equal to
	// len(Arrivals); kept for reporting).
	Records int
}

// Bind resolves a trace against an application: service names become
// catalog IDs, arrivals become virtual times, and each record's CPU demand
// becomes a demand multiplier against its root's expected tree CPU.
//
// targetRPS > 0 rescales the trace's arrival gaps so its mean rate over the
// replayed span equals targetRPS; 0 replays the recorded times verbatim.
func (t *Trace) Bind(app *workload.App, targetRPS float64) (*Replay, error) {
	if len(t.Records) == 0 {
		return nil, errors.New("svcgraph: cannot bind an empty trace")
	}
	byName := make(map[string]int, len(app.Catalog.Services))
	for _, s := range app.Catalog.Services {
		byName[s.Name] = s.ID
	}
	treeCPU := make(map[int]float64)
	cpuOf := func(root int) (float64, error) {
		if v, ok := treeCPU[root]; ok {
			return v, nil
		}
		st := (&workload.App{Name: app.Name, Root: root, Catalog: app.Catalog}).Stats()
		if st.TotalCPUMicros <= 0 {
			return 0, fmt.Errorf("svcgraph: service %q has zero expected tree CPU; cannot scale demand",
				app.Catalog.Service(root).Name)
		}
		treeCPU[root] = st.TotalCPUMicros
		return st.TotalCPUMicros, nil
	}
	scale := 1.0
	if targetRPS > 0 {
		mean := t.MeanRPS()
		if mean <= 0 {
			return nil, errors.New("svcgraph: cannot rescale a zero-span trace to a target RPS")
		}
		scale = mean / targetRPS
	}
	rep := &Replay{Records: len(t.Records), Arrivals: make([]Arrival, 0, len(t.Records))}
	for i, rec := range t.Records {
		root, ok := byName[rec.Service]
		if !ok {
			return nil, fmt.Errorf("svcgraph: trace record %d: unknown service %q in app %q", i+1, rec.Service, app.Name)
		}
		cpu, err := cpuOf(root)
		if err != nil {
			return nil, err
		}
		rep.Arrivals = append(rep.Arrivals, Arrival{
			At:     sim.FromMicros(rec.ArrivalMicros * scale),
			Root:   root,
			Demand: rec.DurationMicros * rec.CPUUtil / cpu,
		})
	}
	return rep, nil
}

// Mix returns the replay's request mixture — one entry per distinct root
// service, weighted by record count, ascending by ID. Feed it to
// machine.RunConfig.Mix so a replaying machine hosts instances of every
// root the trace submits (done automatically by RunConfig.Normalized).
func (r *Replay) Mix() []workload.MixEntry {
	counts := make(map[int]int)
	for _, a := range r.Arrivals {
		counts[a.Root]++
	}
	roots := make([]int, 0, len(counts))
	for id := range counts {
		roots = append(roots, id)
	}
	sort.Ints(roots)
	mix := make([]workload.MixEntry, len(roots))
	for i, id := range roots {
		mix[i] = workload.MixEntry{Root: id, Weight: float64(counts[id])}
	}
	return mix
}

// Replayed counts the arrivals falling inside a [0, window) run — the
// records a replay of that duration actually submits.
func (r *Replay) Replayed(window sim.Time) int {
	n := 0
	for _, a := range r.Arrivals {
		if a.At >= window {
			break
		}
		n++
	}
	return n
}

// Schedule walks the replay open-loop on an engine: submit fires at every
// arrival inside [0, window), in record order. Scheduling is chained — each
// arrival schedules the next — so the event order at tied timestamps is a
// deterministic function of the trace alone.
func (r *Replay) Schedule(eng *sim.Engine, window sim.Time, submit func(root int, demand float64)) {
	if len(r.Arrivals) == 0 || r.Arrivals[0].At >= window {
		return
	}
	idx := 0
	var next func()
	next = func() {
		a := r.Arrivals[idx]
		submit(a.Root, a.Demand)
		idx++
		if idx < len(r.Arrivals) && r.Arrivals[idx].At < window {
			eng.At(r.Arrivals[idx].At, next)
		}
	}
	eng.At(r.Arrivals[0].At, next)
}
