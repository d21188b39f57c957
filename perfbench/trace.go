package main

import (
	"runtime/metrics"
	"time"
)

// runtimeStats is a reading of the Go runtime's cumulative counters.
type runtimeStats struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	metrics.Read(runtimeSamples)
	s := runtimeSamples
	return runtimeStats{
		allocs:     s[0].Value.Uint64() + s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
		gcCPU:      s[4].Value.Float64(),
		totalCPU:   s[5].Value.Float64(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		allocs:     a.allocs - b.allocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

// span is one timed call into a layer of the simulator, recorded by the
// benchmark around the public call (the program itself is not
// instrumented). Times are nanoseconds since the tracer started; the
// runtime deltas cover the span's whole interval, children included.
type span struct {
	ID         int                `json:"id"`
	Parent     int                `json:"parent"` // -1 for a root span
	Name       string             `json:"name"`
	StartNS    int64              `json:"start_ns"`
	EndNS      int64              `json:"end_ns"`
	Allocs     uint64             `json:"allocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	GCCycles   uint64             `json:"gc_cycles"`
	Attrs      map[string]float64 `json:"attrs,omitempty"`

	rt runtimeStats
}

func (s *span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin returns nil and end does nothing, so timed passes
// pay for neither clock nor runtime reads.
type tracer struct {
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans), Parent: -1, Name: name}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	s.rt = readRuntime()
	s.StartNS = time.Since(t.t0).Nanoseconds()
	return s
}

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.EndNS = time.Since(t.t0).Nanoseconds()
	d := readRuntime().sub(s.rt)
	s.rt = d
	s.Allocs, s.AllocBytes, s.GCCycles = d.allocs, d.allocBytes, d.gcCycles
}

// attr records a count measured at the span's boundary.
func (s *span) attr(name string, v float64) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[name] = v
}
