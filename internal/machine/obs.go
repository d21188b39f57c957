package machine

import (
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/telemetry"
)

// machineMetrics caches resolved instruments so the event hot paths never
// perform registry map lookups. A nil *machineMetrics (the default) disables
// metric collection entirely.
type machineMetrics struct {
	reg *obs.Registry
	// queueDepth tracks the aggregate number of runnable invocations queued
	// across all domains, time-weighted.
	queueDepth *obs.TimeHist
	// Admission counters: requests admitted straight into a hardware RQ,
	// spilled to the NIC overflow buffer, enqueued in a software queue, or
	// rejected outright (§4.3).
	admitRQ     *obs.Counter
	admitNICBuf *obs.Counter
	admitSWQ    *obs.Counter
	admitReject *obs.Counter
}

// EnableObs attaches the observability layer to this machine: col records
// per-request span trees (nil disables tracing) and reg receives the machine
// instruments (nil disables metrics). Call before submitting load. With both
// nil the machine behaves exactly as if EnableObs was never called — every
// instrumentation site is a nil-guarded branch with no allocation.
func (m *Machine) EnableObs(col *obs.Collector, reg *obs.Registry) {
	m.trace = col
	if reg == nil {
		m.mx = nil
		return
	}
	m.mx = &machineMetrics{
		reg:         reg,
		queueDepth:  reg.TimeHist("machine.queue.depth"),
		admitRQ:     reg.Counter("machine.admit.rq"),
		admitNICBuf: reg.Counter("machine.admit.nicbuf"),
		admitSWQ:    reg.Counter("machine.admit.swq"),
		admitReject: reg.Counter("machine.admit.reject"),
	}
}

// EnableTelemetry attaches a streaming-telemetry sampler: measured
// end-to-end latencies feed it at completion time. Nil detaches the layer
// at zero cost.
func (m *Machine) EnableTelemetry(s *telemetry.Sampler) { m.tele = s }

// EnableControlTelemetry attaches a second, control-plane sampler fed by
// the same completion-time latency stream. The coupled fleet's load shedder
// runs its slo.burn watchdog here, on a dedicated sampler with a private
// registry, so it never perturbs (and never depends on) whatever telemetry
// the run's user configured. Nil detaches at zero cost.
func (m *Machine) EnableControlTelemetry(s *telemetry.Sampler) { m.teleCtl = s }

// observeQueueDepth applies a queued-invocation delta and records the new
// aggregate depth. Only called when m.mx != nil.
func (m *Machine) observeQueueDepth(d int) {
	m.qlen += d
	m.mx.queueDepth.Observe(m.eng.Now(), float64(m.qlen))
}

// finishMachineMetrics records the end-of-run machine instruments that need
// no hot-path hooks: per-core utilization spread, admission totals, ICN
// path statistics, and the storage R-NIC transport counters. window is the
// arrival window used for utilization normalization. No-op without a
// registry.
func (m *Machine) finishMachineMetrics(window sim.Time) {
	if m.mx == nil {
		return
	}
	reg := m.mx.reg

	if window > 0 {
		lo, hi, sum := -1.0, 0.0, 0.0
		n := 0
		for i := range m.cores {
			u := float64(m.cores[i].busyTime) / float64(window)
			if lo < 0 || u < lo {
				lo = u
			}
			if u > hi {
				hi = u
			}
			sum += u
			n++
		}
		if lo < 0 {
			lo = 0
		}
		reg.Gauge("machine.core.util.mean").Set(sum / float64(n))
		reg.Gauge("machine.core.util.min").Set(lo)
		reg.Gauge("machine.core.util.max").Set(hi)
	}
	reg.Counter("machine.submitted").Add(float64(m.Submitted))
	reg.Counter("machine.completed").Add(float64(m.Completed))
	reg.Counter("machine.rejected").Add(float64(m.Rejected))
	reg.Counter("machine.invocations").Add(float64(m.Invocations))

	reg.Counter("icn.messages").Add(float64(m.msgCount))
	reg.Gauge("icn.hops.mean").Set(m.MeanHops())

	if len(m.storageNIC) > 0 {
		var sent, retx, bytes, cwnd float64
		for _, nic := range m.storageNIC {
			sent += float64(nic.Sent)
			retx += float64(nic.Retransmit)
			bytes += float64(nic.Bytes)
			cwnd += nic.Cwnd()
		}
		reg.Counter("rpcnet.storage.sent").Add(sent)
		reg.Counter("rpcnet.storage.retransmits").Add(retx)
		reg.Counter("rpcnet.storage.wire_bytes").Add(bytes)
		reg.Gauge("rpcnet.storage.cwnd.mean").Set(cwnd / float64(len(m.storageNIC)))
	}
}
