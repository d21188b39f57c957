// Package sched provides the scheduling policies the machine model runs:
// hardware scheduling per paper §4.3-4.4 vs the software schedulers of §3.3
// (Shinjuku and ZygOS). The machine itself implements the software run
// queues these policies cost out.
package sched

// Policy captures how a machine queues, dispatches, and context-switches
// requests. All cycle costs are in core cycles; the machine model converts
// them to time at its clock frequency.
type Policy struct {
	// HardwareRQ selects the per-village hardware request queue (§4.3):
	// enqueue/dequeue without software synchronization.
	HardwareRQ bool
	// CSCycles is the cost charged at each context-switch event: once when
	// a request blocks (save + pick up next) and once when a previously
	// blocked request's state is restored on dequeue (§3.3, Fig 6).
	CSCycles int
	// DequeueCycles is the software cost of popping the run queue (lock
	// acquisition + scheduling logic); it also occupies the queue lock,
	// which is where single-queue configurations collapse (§3.2).
	DequeueCycles int
	// EnqueueCycles is the software cost of pushing the run queue.
	EnqueueCycles int
	// Centralized routes every dispatch decision through one dedicated
	// dispatcher core (Shinjuku/Shenango style); that core is a serial
	// resource and a scalability ceiling.
	Centralized bool
	// WorkStealing lets an idle core pop a victim queue when its own is
	// empty (ZygOS style), paying StealCycles.
	WorkStealing bool
	StealCycles  int
}

// Context-switch costs from §3.3: ≈2K cycles in state-of-the-art software
// schedulers (≈5K in Linux), 128–256 with hardware support.
const (
	SoftwareCSCycles = 2000
	HardwareCSCycles = 128
)

// HardwareSched is μManycore's policy: hardware RQ, hardware context switch.
func HardwareSched() Policy {
	return Policy{
		HardwareRQ:    true,
		CSCycles:      HardwareCSCycles,
		DequeueCycles: 16, // the Dequeue instruction
		EnqueueCycles: 0,  // NIC enqueues in hardware off the critical path
	}
}

// ShinjukuSched models the centralized preemptive scheduler of Kaffes et al.
func ShinjukuSched() Policy {
	return Policy{
		CSCycles:      SoftwareCSCycles,
		DequeueCycles: 400,
		EnqueueCycles: 200,
		Centralized:   true,
	}
}

// ZygOSSched models the work-stealing scheduler of Prekas et al.
func ZygOSSched() Policy {
	return Policy{
		CSCycles:      SoftwareCSCycles,
		DequeueCycles: 350,
		EnqueueCycles: 200,
		WorkStealing:  true,
		StealCycles:   1200,
	}
}
