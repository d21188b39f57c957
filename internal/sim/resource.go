package sim

// Resource models a serially-reusable resource (an ICN link, a memory bank,
// a dispatcher core) using busy-until bookkeeping: an acquisition at time t
// for duration d completes at max(t, busyUntil)+d. This captures FIFO
// queueing delay without simulating an explicit queue, which keeps
// high-fan-in contention points (the whole reason this paper exists) cheap
// to model.
type Resource struct {
	busyUntil Time
	// TotalBusy accumulates occupied time for utilization reporting.
	TotalBusy Time
}

// Acquire reserves the resource at time now for duration d and returns the
// completion time. The caller should schedule its completion event at the
// returned time; the delta between the return value and now+d is queueing
// delay.
func (r *Resource) Acquire(now Time, d Time) Time {
	start := now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + d
	r.TotalBusy += d
	return r.busyUntil
}

// QueueDelay reports how long a request arriving at now would wait before
// service starts, without acquiring.
func (r *Resource) QueueDelay(now Time) Time {
	if r.busyUntil > now {
		return r.busyUntil - now
	}
	return 0
}

// BusyUntil exposes the current horizon (for least-loaded ECMP decisions).
func (r *Resource) BusyUntil() Time { return r.busyUntil }

// Utilization reports TotalBusy / window.
func (r *Resource) Utilization(window Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(r.TotalBusy) / float64(window)
}

// Reset clears the resource state.
func (r *Resource) Reset() { *r = Resource{} }
