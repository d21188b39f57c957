package machine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"umanycore/internal/dist"
	"umanycore/internal/icn"
	"umanycore/internal/obs"
	"umanycore/internal/rpcnet"
	"umanycore/internal/rq"
	"umanycore/internal/sched"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/telemetry"
	"umanycore/internal/workload"
)

// Machine simulates one server: a processor built from Config serving one
// application's request trees.
type Machine struct {
	cfg     Config
	eng     *sim.Engine
	catalog *workload.Catalog
	mix     []workload.MixEntry // arrival mixture over root services
	topo    icn.Topology

	domains []*domain
	// instances is the top-level NIC's dispatch table (§4.2), indexed by
	// service ID: the domains hosting an instance of the service, and
	// cursor the index of the one the hardware round-robin picks next.
	instances [][]*domain
	cursor    []int
	// cores is the slab of every core, domain by domain (see domainCores),
	// and a core's id is its slab index.
	cores []core
	// perf is each domain's compute-speed divisor when some villages have
	// big cores (see applyHeterogeneity); nil when every domain runs at
	// cfg.PerfFactor.
	perf []float64
	// cost is the per-config cycle-cost table the event path charges.
	cost costTable
	// storageNIC, when the storage network is lossy, is the R-NIC pool
	// handling retransmission and congestion control (§4.1).
	storageNIC []*rpcnet.RNIC

	// Measurement.
	measureFrom sim.Time
	Latency     stats.Sample // end-to-end root latency, microseconds
	// LatencyByRoot splits the sample by request type (root service ID) —
	// the per-application series of the mixed-workload figures.
	LatencyByRoot map[int]*stats.Sample
	Submitted     uint64
	Completed     uint64
	Rejected      uint64
	rejectedRoots uint64
	Invocations   uint64
	// RemoteServed counts child RPCs that arrived from peer servers via
	// SubmitRemote (coupled-fleet runs only).
	RemoteServed uint64
	coreBusy     sim.Time
	hopSum       uint64
	msgCount     uint64

	// Observability (nil/zero when disabled — see EnableObs in obs.go).
	trace *obs.Collector
	mx    *machineMetrics
	qlen  int // runnable invocations queued machine-wide (metrics only)
	// tele receives measured end-to-end latencies when streaming telemetry
	// is enabled (see EnableTelemetry in obs.go); nil disables at zero cost.
	tele *telemetry.Sampler
	// teleCtl is the control plane's dedicated sampler (the fleet load
	// shedder's slo.burn watchdog — see EnableControlTelemetry); it sees the
	// same latency stream as tele and is nil outside controlled fleet runs.
	teleCtl *telemetry.Sampler

	// remoteSend, when non-nil, couples this machine to a fleet: child RPCs
	// that draw the RemoteCallFrac lottery are shipped to a peer server
	// through it instead of paying a probabilistic latency add locally.
	remoteSend RemoteSender
	// calls is the remote-call table: one slot per child RPC in flight to
	// a peer, indexed by the token the fleet answers it with
	// (RemoteResponse). callFree holds the free slots' tokens.
	calls    []remoteCall
	callFree []int32
	// replyHook answers the requests that came from elsewhere in the
	// fleet: peer-served child RPCs and control-dispatched roots.
	replyHook ReplyHook
	// respondHook, when non-nil, is called once per root this server
	// answers: at every completion and every root admission reject.
	respondHook func()

	// local, non-nil on a placed machine (NewPlaced — a fleet service-graph
	// server), marks which services are hosted here. A child RPC to a
	// non-local service always ships through remoteSend; the RemoteCallFrac
	// lottery is bypassed entirely.
	local []bool

	// sp holds the effective what-if cost multipliers (all 1 when
	// Config.WhatIf is zero), precomputed at construction. The fixed cycle
	// costs are scaled once into cost; sp serves the time intervals scaled
	// per event (storage round trips, wire legs).
	sp stageScale

	// rng is the source of this machine's randomness: the engine's streams
	// by default, or the bundle SetRNG installed. A sharded fleet gives
	// every server its own bundle (seeded from the server index), so the
	// server draws the same sequences whether it runs on a private engine
	// or interleaved with peers on a shared one — the property the PDES
	// byte-identity contract rests on.
	rng *sim.Streams
	// streams caches each stream this machine has drawn from rng, resolved
	// on first use; SetRNG clears it. A bundle re-seeds its streams in
	// place on Reset, so a cached stream stays valid for the machine's
	// lifetime.
	streams [numStreams]*rand.Rand

	invSeq uint64
	// invFree holds finished invocations for reuse; invAllocs counts the
	// invocations ever allocated (all on invFree once the machine drains).
	invFree   []*invocation
	invAllocs int
	// doneFree holds finished root-completion records for reuse;
	// doneAllocs counts the records ever allocated.
	doneFree   []*rootDone
	doneAllocs int
}

// stream names one of the machine's independent random streams.
type stream int

// The machine's random streams. Each draws from the stream of the machine's
// bundle named in streamNames.
const (
	streamRoute stream = iota
	streamMix
	streamService
	streamCoherence
	streamStorageLoss
	streamStorage
	streamICN
	numStreams
)

var streamNames = [numStreams]string{
	streamRoute:       "route",
	streamMix:         "mix",
	streamService:     "service",
	streamCoherence:   "coherence",
	streamStorageLoss: "storage-loss",
	streamStorage:     "storage",
	streamICN:         "icn",
}

// SetRNG scopes this machine's randomness to the given stream bundle
// instead of its engine's streams. Call before submitting load.
func (m *Machine) SetRNG(r *sim.Streams) {
	m.rng = r
	m.streams = [numStreams]*rand.Rand{}
}

// rand returns one of the machine's random streams. Streams are resolved
// lazily, so a machine never seeds a stream it does not draw from.
func (m *Machine) rand(s stream) *rand.Rand {
	if r := m.streams[s]; r != nil {
		return r
	}
	r := m.rng.Rand(streamNames[s])
	m.streams[s] = r
	return r
}

// RemoteSender ships one cross-server child RPC into the fleet.
//
//   - svcID is the callee service.
//   - demand is the caller's trace-replay compute-demand multiplier
//     (0 = unscaled); the peer applies it to the served subtree.
//   - depart is the virtual time the request has left this server's NIC,
//     with half the inter-server RTT already paid.
//   - traced says the caller recorded an invoke span for this RPC. The
//     fleet then mints a fleet-unique remote-link ID, hands it to the
//     peer's SubmitRemote so the peer traces the served subtree under that
//     link, and returns it so the caller can tag its invoke span (obs.Merge
//     stitches the two halves). Untraced sends return 0.
//   - token names the call in this machine's remote-call table. The fleet
//     answers it exactly once, by calling RemoteResponse(token, done) on
//     this machine with the virtual time the peer's response left the peer.
//
// The sender is a plain function of values: the machine keeps everything
// the response needs in its own table, so nothing is allocated per call.
type RemoteSender func(svcID int, demand float64, depart sim.Time, traced bool, token int32) (link uint64)

// Reply is the fleet address that answers a request from elsewhere in the
// fleet: the origin shard and a token the origin uses to find the request
// again. The machine never interprets it; it hands it back to the reply
// hook.
type Reply struct {
	Origin int32
	Token  int32
}

// ReplyHook sends one answer into the fleet: to is the address the request
// carried, done the virtual time the response leaves this server's NIC,
// and rejected whether the server turned a control-dispatched root away at
// admission (§4.3). A peer-served child RPC always answers with rejected
// false: a rejected child still answers its caller so the tree terminates.
type ReplyHook func(to Reply, done sim.Time, rejected bool)

// replyMode says how a parentless invocation answers.
type replyMode uint8

const (
	// noReply: a root from this server's own arrivals; its completion is
	// recorded here and nothing leaves the server.
	noReply replyMode = iota
	// peerReply: the invocation serves a peer server's child RPC; respond
	// hands the response's egress time to the reply hook instead of
	// recording latency.
	peerReply
	// ctlReply: a control-dispatched root; its completion and its
	// admission reject both answer the front end through the reply hook.
	ctlReply
)

// remoteCall is one child RPC in flight to a peer server: the blocked
// parent its response resolves and is delivered to, and its invoke span
// (0 when untraced). The parent stays blocked, in its domain, until the
// response arrives.
type remoteCall struct {
	parent *invocation
	span   uint64
}

// rootDone is one root's completion, counted once its response has left
// the package: a latency-sample entry for measured roots and the Completed
// count for all. Records are recycled through the machine's free list, and
// each binds its event once.
type rootDone struct {
	lat      float64
	root     int
	measured bool
	fire     sim.Event
}

// domain is one village. A machine keeps one per village resident for its
// whole life, so it holds only what the event path reads; its cores are a
// range of the machine's slab (see Machine.domainCores).
type domain struct {
	id       int32
	endpoint int32
	// idle is the stack of this domain's idle cores as slab indices, the
	// most recently idled on top. Its backing array is this domain's part
	// of one per-machine array, sized to the domain's core count.
	idle []int32
	// sched serializes queue operations: the software queue lock, the
	// (possibly machine-shared) centralized dispatcher core, or the
	// hardware RQ's atomic access port.
	sched  *sim.Resource
	hwq    *rq.RQ
	nicbuf *rq.NICBuffer
	// swq is the software FIFO of ready invocations, nil when the domain
	// has a hardware RQ instead.
	swq *fifo
}

// fifo is a queue of invocations over one backing array: popping advances a
// head index, and pushing onto a full array first slides the live entries
// back to its start, so a queue that keeps cycling stops allocating.
type fifo struct {
	q    []*invocation
	head int
}

func (f *fifo) len() int { return len(f.q) - f.head }

func (f *fifo) push(inv *invocation) {
	if len(f.q) == cap(f.q) && f.head > 0 {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q = f.q[:n]
		f.head = 0
	}
	f.q = append(f.q, inv)
}

func (f *fifo) pop() *invocation {
	inv := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return inv
}

type core struct {
	dom *domain
	id  int32
	// svcID is the core's assigned Service ID register (§4.1); -1 serves
	// any service (the default when a village hosts one instance).
	svcID int32
}

// invocation is one service invocation in a request tree. Invocations are
// recycled through the machine's free list (newInv / freeInv): one object
// serves many lives, and only its bound events survive from one life to the
// next.
type invocation struct {
	id      uint64
	svc     *workload.Service
	dom     *domain
	parent  *invocation
	opIdx   int32
	pending int32 // outstanding children
	entry   *rq.Entry
	// ctx is the invocation's Request Context Memory entry, handed to the
	// hardware RQ (or the NIC buffer) on arrival.
	ctx   rq.Context
	start sim.Time
	// lastCore is the global core ID this invocation last ran on, -1 if
	// never scheduled.
	lastCore int
	// core is the core currently running this invocation, set at dispatch.
	core *core
	// enqueueFn, segmentEndFn, releaseFn, resolveChildFn and swqReadyFn
	// are this object's arrival, segment-end, post-save core-release,
	// child-response and software-queue-admission events. Each captures
	// only the pooled pointer, so it is built once per object (enqueueFn on
	// allocation, the rest on first use) and stays valid across lives.
	enqueueFn      sim.Event
	segmentEndFn   sim.Event
	releaseFn      sim.Event
	resolveChildFn sim.Event
	swqReadyFn     sim.Event
	// resumed marks that processor state was saved and must be restored
	// (the flags share one word).
	resumed bool
	// remote marks a child whose caller is on another server.
	remote bool
	// dispatched marks that initial RPC-layer processing already ran.
	dispatched bool
	// measured marks roots that arrived after warmup.
	measured bool
	// replyMode says whether and how a parentless invocation answers
	// through the reply hook, and reply is the address it answers.
	replyMode replyMode
	reply     Reply
	// span is this invocation's envelope span ID, 0 when untraced.
	span uint64
	// enqAt is when the invocation last became runnable (queue-wait start).
	enqAt sim.Time
	// demand scales every compute sample of this invocation and is
	// inherited by its children — trace replay's per-record service demand
	// (see svcgraph.Arrival.Demand). Zero means unscaled.
	demand float64
}

// New builds a machine on the given engine serving a single request type.
func New(eng *sim.Engine, cfg Config, app *workload.App) *Machine {
	return NewMix(eng, cfg, app.Catalog, []workload.MixEntry{{Root: app.Root, Weight: 1}})
}

// NewMix builds a machine serving a weighted mixture of request types from
// one catalog (§5: the server receives the full application mix; figures
// report per-type latencies).
func NewMix(eng *sim.Engine, cfg Config, catalog *workload.Catalog, mix []workload.MixEntry) *Machine {
	return newMachine(eng, cfg, catalog, mix, nil)
}

// NewPlaced builds a machine hosting only the given services of the
// catalog — one server of a fleet service-graph deployment (see
// fleet.Config.Graph and internal/svcgraph). The hosted services share the
// machine's villages by equal-weight largest-remainder allocation: the
// fleet-level placement, not a local request mix, decides who lives here.
// Child RPCs to services outside local always ship through the
// RemoteSender. The request mix defaults to the first hosted service so an
// untyped SubmitRoot still resolves; graph fleets submit typed roots via
// SubmitRootAs.
func NewPlaced(eng *sim.Engine, cfg Config, catalog *workload.Catalog, local []int) *Machine {
	if len(local) == 0 {
		panic("machine: NewPlaced needs at least one local service")
	}
	return newMachine(eng, cfg, catalog, []workload.MixEntry{{Root: local[0], Weight: 1}}, local)
}

func newMachine(eng *sim.Engine, cfg Config, catalog *workload.Catalog, mix []workload.MixEntry, local []int) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(mix) == 0 {
		panic("machine: empty mix")
	}
	weights := hostedWeights(catalog, mix, local)
	if err := cfg.checkHosting(len(weights), local == nil); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:           cfg,
		eng:           eng,
		rng:           eng.Streams(),
		catalog:       catalog,
		mix:           mix,
		instances:     make([][]*domain, len(catalog.Services)),
		cursor:        make([]int, len(catalog.Services)),
		LatencyByRoot: make(map[int]*stats.Sample),
		sp:            cfg.WhatIf.scales(),
	}
	m.cost = newCostTable(&m.cfg, m.sp)
	switch cfg.Topo {
	case MeshTopo:
		m.topo = icn.NewMesh(cfg.MeshW, cfg.MeshH, chipletLink)
	case FatTreeTopo:
		m.topo = icn.NewFatTree(cfg.FatTreeLeaves, chipletLink)
	case LeafSpineTopo:
		m.topo = icn.NewLeafSpine(cfg.LeafSpineCfg, chipletLink)
	}
	endpoints := m.topo.NumEndpoints()
	coresPer := cfg.Cores / cfg.Domains
	// One slab holds every core, and the domains' idle stacks share one
	// array of slab indices, each sized once: a domain never has more idle
	// cores than it owns.
	m.cores = make([]core, coresPer*cfg.Domains)
	idle := make([]int32, len(m.cores))
	// Domains and their schedulers, hardware RQs, NIC buffers and software
	// FIFOs each live in one slice.
	doms := make([]domain, cfg.Domains)
	m.domains = make([]*domain, cfg.Domains)
	var scheds []sim.Resource
	if cfg.CentralDispatcher && cfg.Policy.Centralized {
		scheds = make([]sim.Resource, 1)
	} else {
		scheds = make([]sim.Resource, cfg.Domains)
	}
	var hwqs []rq.RQ
	var nicbufs []rq.NICBuffer
	var swqs []fifo
	if cfg.Policy.HardwareRQ {
		hwqs = rq.NewQueues(cfg.Domains, cfg.RQCapacity)
		nicbufs = rq.NewNICBuffers(cfg.Domains, cfg.NICBufCapacity)
	} else {
		swqs = make([]fifo, cfg.Domains)
	}
	for d := range doms {
		dom := &doms[d]
		*dom = domain{id: int32(d), endpoint: int32(d * endpoints / cfg.Domains)}
		// A centralized dispatcher is one resource every domain shares.
		dom.sched = &scheds[min(d, len(scheds)-1)]
		if hwqs != nil {
			dom.hwq = &hwqs[d]
			dom.nicbuf = &nicbufs[d]
		} else {
			dom.swq = &swqs[d]
		}
		lo, hi := d*coresPer, (d+1)*coresPer
		dom.idle = idle[lo:hi:hi]
		for i := lo; i < hi; i++ {
			m.cores[i] = core{dom: dom, id: int32(i), svcID: -1}
			idle[i] = int32(i)
		}
		m.domains[d] = dom
	}
	m.applyHeterogeneity()
	switch {
	case local != nil:
		m.local = make([]bool, len(catalog.Services))
		for svc := range weights {
			m.local[svc] = true
		}
		m.place(weights)
	case cfg.Extensions.ColocatedServices > 1:
		m.placeColocated(weights)
	default:
		m.place(weights)
	}
	if cfg.StorageLossProb > 0 {
		// One R-NIC per cluster endpoint (villages share their cluster's
		// remote port budget).
		n := m.topo.NumEndpoints()
		for i := 0; i < n; i++ {
			nic := rpcnet.NewRNIC(40, storageRTT, cfg.StorageLossProb)
			// Real transports set the retransmission timeout far above the
			// RTT (loss detection needs a conservative timer); 50× the 1μs
			// base RTT is an optimistic datacenter RTO.
			nic.RTOMultiple = 50
			m.storageNIC = append(m.storageNIC, nic)
		}
	}
	return m
}

// hostedWeights returns the placement weight of every service a machine
// hosts. The fleet-level placement already decided which services live on
// a placed server (local non-nil), so each gets an equal share; a mix
// machine weighs each service by its expected invocations per request.
func hostedWeights(catalog *workload.Catalog, mix []workload.MixEntry, local []int) map[int]float64 {
	if local == nil {
		return serviceWeights(catalog, mix)
	}
	weights := make(map[int]float64, len(local))
	for _, svc := range local {
		if svc < 0 || svc >= len(catalog.Services) {
			panic(fmt.Sprintf("machine: local service %d outside catalog of %d", svc, len(catalog.Services)))
		}
		weights[svc] = 1
	}
	return weights
}

// place fills the dispatch table from per-service weights: a mix machine's
// expected invocations of each service per arriving request, or a placed
// server's equal shares. Random placement hosts every weighted service
// everywhere; pinned placement allocates domains proportionally to weight
// (§4.1: one instance per village, more villages for hotter services),
// largest-remainder with a minimum of one each.
func (m *Machine) place(weights map[int]float64) {
	if m.cfg.Placement == RandomPlacement {
		for svc := range weights {
			m.instances[svc] = m.domains
		}
		return
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	// Largest-remainder allocation with a minimum of one domain each.
	type alloc struct {
		svc  int
		n    int
		frac float64
	}
	var allocs []alloc
	used := 0
	for svc := 0; svc < len(m.catalog.Services); svc++ {
		w, ok := weights[svc]
		if !ok {
			continue
		}
		exact := w / total * float64(len(m.domains))
		n := max(1, int(exact))
		allocs = append(allocs, alloc{svc: svc, n: n, frac: exact - float64(int(exact))})
		used += n
	}
	for ; used < len(m.domains); used++ {
		// Distribute leftovers round-robin biased by fractional part order
		// (allocs is small; a simple pass by descending frac each round).
		best := 0
		for j := range allocs {
			if allocs[j].frac > allocs[best].frac {
				best = j
			}
		}
		allocs[best].n++
		allocs[best].frac = 0
	}
	for ; used > len(m.domains); used-- {
		// Shrink the largest allocation. checkHosting leaves no more
		// services than domains, so while the sum is over, one is above 1.
		best := 0
		for j := range allocs {
			if allocs[j].n > allocs[best].n {
				best = j
			}
		}
		allocs[best].n--
	}
	// The allocations now sum to len(m.domains), so each service takes the
	// next contiguous range. The range is capacity-capped: an append to it
	// copies instead of overwriting the next service's domains. With big
	// villages the ranges go out by descending weight × mean compute, so
	// the services that compute most start at domain 0, where
	// applyHeterogeneity puts the big cores; otherwise in service-ID order.
	if m.cfg.Extensions.BigVillageFrac > 0 {
		load := func(a alloc) float64 { return weights[a.svc] * m.catalog.Service(a.svc).MeanComputeMicros() }
		sort.SliceStable(allocs, func(i, j int) bool { return load(allocs[i]) > load(allocs[j]) })
	}
	next := 0
	for _, a := range allocs {
		m.instances[a.svc] = m.domains[next : next+a.n : next+a.n]
		next += a.n
	}
}

// SetMeasureFrom discards roots arriving before t from the latency sample.
func (m *Machine) SetMeasureFrom(t sim.Time) { m.measureFrom = t }

// pickInstance round-robins over the service's hosting domains (§4.2).
func (m *Machine) pickInstance(svc int) *domain {
	doms := m.instances[svc]
	if len(doms) == 0 {
		panic(fmt.Sprintf("machine: no instances for service %d", svc))
	}
	if m.cfg.Placement == RandomPlacement {
		return doms[m.rand(streamRoute).Intn(len(doms))]
	}
	// Hardware round-robin dispatch (§4.2).
	i := m.cursor[svc]
	m.cursor[svc] = (i + 1) % len(doms)
	return doms[i]
}

// SubmitRoot injects one external request for the app's root service at the
// current time. The request passes the top-level NIC and the ICN before
// reaching its village.
func (m *Machine) SubmitRoot() { m.submitRootSvc(m.pickRoot(), 0, noReply, Reply{}) }

// SubmitRootCtl injects a root like SubmitRoot and additionally reports its
// admission outcome: the reply hook is called exactly once for it, with to,
// the virtual time the response (completion, or a §4.3 admission reject)
// leaves this server's NIC, and whether it was a reject. The coupled
// fleet's control loop dispatches through this so rejected roots come back
// to the front end for retry/hedging accounting instead of vanishing into
// rejectedRoots. Server-side accounting (Submitted, Completed, rejection
// counters, the per-attempt latency sample) is unchanged.
func (m *Machine) SubmitRootCtl(to Reply) {
	m.submitRootSvc(m.pickRoot(), 0, ctlReply, to)
}

// SubmitRootAs injects one external root request of an explicit service
// type with a compute-demand multiplier (0 = unscaled) — the trace-replay
// and fleet service-graph entry point. Ingress path and root accounting
// match SubmitRoot exactly; only the mixture draw is bypassed.
func (m *Machine) SubmitRootAs(svcID int, demand float64) {
	m.submitRootSvc(svcID, demand, noReply, Reply{})
}

func (m *Machine) submitRootSvc(svcID int, demand float64, mode replyMode, to Reply) {
	m.Submitted++
	now := m.eng.Now()
	inv := m.newInv()
	inv.svc = m.catalog.Service(svcID)
	inv.start = now
	inv.measured = now >= m.measureFrom
	inv.demand = demand
	inv.replyMode, inv.reply = mode, to
	dom := m.pickInstance(inv.svc.ID)
	inv.dom = dom
	// Top-level NIC → village. Conventional designs carry external traffic
	// across the on-package fabric from the I/O corner; μManycore delivers
	// via the leaf NH's direct port.
	at := now + ingressLatency + m.cost.nic
	if m.cfg.IOViaICN {
		at, _ = m.ioDeliverIn(at, int(dom.endpoint), reqMsgBytes)
	}
	if m.trace != nil && inv.measured {
		inv.span = m.trace.StartRoot(inv.id, int16(inv.svc.ID), now)
		if at > now {
			m.trace.Add(inv.span, obs.StageIngress, now, at)
		}
	}
	m.eng.At(at, inv.enqueueFn)
}

// SetRemoteSender couples this machine to a fleet: child RPCs drawing the
// RemoteCallFrac lottery are routed through f to a peer server instead of
// being approximated by a local latency add. Call before submitting load.
func (m *Machine) SetRemoteSender(f RemoteSender) { m.remoteSend = f }

// SetReplyHook installs the hook that answers SubmitRemote calls and
// SubmitRootCtl roots. Call before submitting either.
func (m *Machine) SetReplyHook(f ReplyHook) { m.replyHook = f }

// SetRespondHook installs f, called once each time this server answers a
// root request: a completion or an admission reject. Those answers are
// what a front-end eventually learns about a server, so a fleet dispatcher
// counts them through f to form the outstanding view its balancer routes
// on. Call before submitting load.
func (m *Machine) SetRespondHook(f func()) { m.respondHook = f }

// SubmitRemote injects a child RPC arriving from a peer server at the
// current time: it passes the top-level NIC and the ICN like an external
// request, runs svcID's full invocation subtree on this machine (compute
// samples scaled by the caller's demand multiplier, 0 = unscaled), and
// answers to through the reply hook with the virtual time the response
// leaves this server's NIC. Remote invocations never enter the latency
// sample or the Submitted / Completed root accounting; they are extra
// offered load. A nonzero link (caller traced, tracing on here) opens a
// link-tagged envelope span so the served subtree is recorded in this
// machine's collector and stitched under the caller's invoke span by
// obs.Merge.
func (m *Machine) SubmitRemote(svcID int, demand float64, link uint64, to Reply) {
	m.RemoteServed++
	now := m.eng.Now()
	inv := m.newInv()
	inv.svc = m.catalog.Service(svcID)
	inv.start = now
	inv.demand = demand
	inv.replyMode, inv.reply = peerReply, to
	dom := m.pickInstance(svcID)
	inv.dom = dom
	if m.trace != nil && link != 0 {
		inv.span = m.trace.StartRemote(inv.id, link, int16(svcID), now)
	}
	at := now + ingressLatency + m.cost.nic
	if m.cfg.IOViaICN {
		at, _ = m.ioDeliverIn(at, int(dom.endpoint), reqMsgBytes)
	}
	if inv.span != 0 && at > now {
		m.trace.Add(inv.span, obs.StageIngress, now, at)
	}
	m.eng.At(at, inv.enqueueFn)
}

// pickRoot draws a request type from the arrival mixture.
func (m *Machine) pickRoot() int {
	if len(m.mix) == 1 {
		return m.mix[0].Root
	}
	var total float64
	for _, e := range m.mix {
		total += e.Weight
	}
	x := m.rand(streamMix).Float64() * total
	for _, e := range m.mix {
		x -= e.Weight
		if x < 0 {
			return e.Root
		}
	}
	return m.mix[len(m.mix)-1].Root
}

// newInv starts an invocation's life with the next invocation ID, taking
// the object from the free list or, when the list is empty, allocating one
// and binding its arrival event.
func (m *Machine) newInv() *invocation {
	var inv *invocation
	if n := len(m.invFree); n > 0 {
		inv = m.invFree[n-1]
		m.invFree = m.invFree[:n-1]
	} else {
		inv = &invocation{}
		inv.enqueueFn = func() { m.enqueue(inv) }
		m.invAllocs++
	}
	m.invSeq++
	inv.id = m.invSeq
	inv.lastCore = -1
	return inv
}

// freeInv ends an invocation's life after complete or reject: it zeroes
// every field but the bound events and puts the object on the free list.
// Nothing may use inv (or its ctx) afterwards.
func (m *Machine) freeInv(inv *invocation) {
	*inv = invocation{
		enqueueFn:      inv.enqueueFn,
		segmentEndFn:   inv.segmentEndFn,
		releaseFn:      inv.releaseFn,
		resolveChildFn: inv.resolveChildFn,
		swqReadyFn:     inv.swqReadyFn,
	}
	m.invFree = append(m.invFree, inv)
}

// enqueue deposits a ready invocation in its domain's queue.
func (m *Machine) enqueue(inv *invocation) {
	dom := inv.dom
	if inv.span != 0 {
		inv.enqAt = m.eng.Now()
	}
	if dom.hwq != nil {
		inv.ctx = rq.Context{RequestID: inv.id, UserData: inv}
		e := dom.hwq.Enqueue(inv.svc.ID, &inv.ctx)
		if e == nil {
			if !dom.nicbuf.Offer(inv.svc.ID, &inv.ctx) {
				m.reject(inv)
				return
			}
			if m.mx != nil {
				m.mx.admitNICBuf.Inc()
				m.observeQueueDepth(1)
			}
		} else {
			inv.entry = e
			if m.mx != nil {
				m.mx.admitRQ.Inc()
				m.observeQueueDepth(1)
			}
		}
		m.kick(dom)
		return
	}
	m.swqEnqueue(inv)
}

// reject drops a request that found both the RQ and the NIC buffer full
// (§4.3), ending inv's life. A rejected child still answers its parent so
// the tree terminates.
func (m *Machine) reject(inv *invocation) {
	m.Rejected++
	if m.mx != nil {
		m.mx.admitReject.Inc()
	}
	if inv.span != 0 {
		// The flag excludes the request tree from tail analysis; a rejected
		// child's span still closes in respond so containment holds.
		m.trace.Flag(inv.span, obs.FlagRejected)
		if inv.parent == nil {
			m.trace.End(inv.span, m.eng.Now())
		}
	}
	if inv.parent != nil || inv.replyMode == peerReply {
		// Children (local or peer-served) still answer their caller so the
		// request tree terminates.
		m.respond(inv)
	} else {
		m.rejectedRoots++
		if m.respondHook != nil {
			m.respondHook()
		}
		if inv.replyMode == ctlReply {
			// Control-dispatched root: instead of a silent drop, the
			// rejection answers the front end. It turns around at the NIC
			// boundary where the admission check lives (§4.3) — one ingress
			// latency, no ICN crossing.
			m.replyHook(inv.reply, m.eng.Now()+ingressLatency, true)
		}
	}
	m.freeInv(inv)
}

// perfOf returns the effective compute-speed divisor of a domain.
func (m *Machine) perfOf(dom *domain) float64 {
	if m.perf != nil {
		return m.perf[dom.id]
	}
	return m.cfg.PerfFactor
}

// domainCores returns dom's range of the core slab.
func (m *Machine) domainCores(dom *domain) []core {
	n := len(m.cores) / len(m.domains)
	lo := int(dom.id) * n
	return m.cores[lo : lo+n]
}

// workFor reports whether a specific core has dispatchable work, honoring
// its Service ID register and the core-stealing extension.
func (m *Machine) workFor(c *core) bool {
	dom := c.dom
	if dom.hwq != nil {
		if dom.hwq.HasReady(int(c.svcID)) {
			return true
		}
		if c.svcID >= 0 && m.cfg.Extensions.CoreStealing {
			return dom.hwq.HasReady(-1)
		}
		return false
	}
	return dom.swq.len() > 0
}

// kick wakes idle cores while runnable work remains. Under work stealing,
// leftover work with no local idle core wakes an idle core elsewhere, which
// steals it (ZygOS-style idle polling).
func (m *Machine) kick(dom *domain) {
	for len(dom.idle) > 0 && m.hasWork(dom) {
		// Wake the most recently idled core whose Service ID matches the
		// ready work; without co-location every core matches.
		woke := false
		for i := len(dom.idle) - 1; i >= 0; i-- {
			c := &m.cores[dom.idle[i]]
			if !m.workFor(c) {
				continue
			}
			dom.idle = append(dom.idle[:i], dom.idle[i+1:]...)
			m.dispatch(c)
			woke = true
			break
		}
		if !woke {
			break
		}
	}
	if m.cfg.Policy.WorkStealing && m.hasWork(dom) {
		for _, other := range m.domains {
			if other == dom || len(other.idle) == 0 {
				continue
			}
			c := &m.cores[other.idle[len(other.idle)-1]]
			other.idle = other.idle[:len(other.idle)-1]
			m.dispatch(c)
			return
		}
	}
}

func (m *Machine) hasWork(dom *domain) bool {
	if dom.hwq != nil {
		return dom.hwq.HasReady(-1)
	}
	return dom.swq.len() > 0
}

// newLockFactor is the factor that scales a domain's software-lock
// critical sections with the number of cores sharing its queue: cache-line
// ping-pong makes a contended lock acquisition several times more expensive
// than an uncontended one (§3.2's "high synchronization overheads" of
// centralized queues). Centralized dispatchers and the hardware RQ are
// unaffected.
func newLockFactor(p sched.Policy, cores int) float64 {
	if p.Centralized || p.HardwareRQ {
		return 1
	}
	f := math.Sqrt(float64(cores)) / 12
	if f < 1 {
		return 1
	}
	return f
}

// pop removes the next runnable invocation, charging queue-access costs,
// and returns it with the time the pop completes. Returns nil when no work
// exists (after a failed steal attempt, if enabled).
func (m *Machine) pop(c *core) (*invocation, sim.Time) {
	now := m.eng.Now()
	dom := c.dom
	cost := m.cost.dequeue
	if dom.hwq != nil {
		e := dom.hwq.Dequeue(int(c.svcID), int(c.id))
		if e == nil && c.svcID >= 0 && m.cfg.Extensions.CoreStealing {
			// §8 extension: an idle core temporarily serves a co-located
			// instance when its own service has no ready work.
			e = dom.hwq.Dequeue(-1, int(c.id))
		}
		if e != nil {
			if m.mx != nil {
				m.observeQueueDepth(-1)
			}
			grant := dom.sched.Acquire(now, cost)
			return e.Ctx.UserData.(*invocation), grant
		}
		return nil, now
	}
	if dom.swq.len() > 0 {
		inv := dom.swq.pop()
		if m.mx != nil {
			m.observeQueueDepth(-1)
		}
		grant := dom.sched.Acquire(now, cost)
		return inv, grant
	}
	if m.cfg.Policy.WorkStealing {
		// Steal from the longest software queue in the machine.
		var victim *domain
		best := 0
		for _, d := range m.domains {
			if d != dom && d.swq.len() > best {
				best = d.swq.len()
				victim = d
			}
		}
		if victim != nil {
			inv := victim.swq.pop()
			if m.mx != nil {
				m.observeQueueDepth(-1)
			}
			grant := victim.sched.Acquire(now, cost+m.cost.steal)
			// The stolen invocation migrates to this core's domain.
			inv.dom = dom
			return inv, grant
		}
	}
	return nil, now
}

// dispatch runs on a woken core: pop work, charge restore costs, execute the
// next compute segment.
//
// Cost placement follows §4.4: with a centralized software scheduler
// (Shinjuku/Shenango), the *dispatcher* performs the state restore, so the
// context-switch cycles occupy the domain's dispatcher resource and
// serialize across cores — the scalability ceiling the paper measures. With
// distributed software scheduling or the hardware engine, the restore runs
// on the dispatching core itself.
func (m *Machine) dispatch(c *core) {
	inv, readyAt := m.pop(c)
	if inv == nil {
		c.dom.idle = append(c.dom.idle, c.id)
		return
	}
	if inv.entry != nil && inv.entry.Status != rq.Running {
		// Defensive: hardware dequeue marks Running atomically; software
		// path has no entry.
		panic("machine: dequeued entry not running")
	}
	popAt := m.eng.Now()
	start := readyAt
	csEnd, memEnd := start, start
	// Restore saved state (hardware or software context switch).
	if inv.resumed {
		if m.cfg.Policy.Centralized {
			start = c.dom.sched.Acquire(start, m.cost.cs)
		} else {
			start += m.cost.cs
		}
		csEnd = start
		// Migration/coherence penalty when resuming on a different core.
		if inv.lastCore >= 0 && inv.lastCore != int(c.id) {
			if m.cfg.GlobalCoherence {
				start += m.cost.coherence
				m.injectCoherenceTraffic(c.dom)
			} else {
				start += m.cost.villageResume
			}
		}
		memEnd = start
	}
	// RPC-layer processing on first dispatch (software stacks only; the
	// hardware NIC did it off-core).
	if !inv.dispatched {
		inv.dispatched = true
		start += m.cost.rpcProc
	} else if inv.resumed {
		// Response deserialization on resume.
		start += m.cost.resumeProc
	}
	inv.resumed = false
	inv.lastCore = int(c.id)
	inv.core = c

	op := inv.svc.Ops[inv.opIdx]
	if op.Kind != workload.OpCompute {
		panic(fmt.Sprintf("machine: dispatch at non-compute op %v", op.Kind))
	}
	dur := m.computeDur(inv, op, c)
	end := start + dur
	if inv.span != 0 {
		if popAt > inv.enqAt {
			m.trace.Add(inv.span, obs.StageQueue, inv.enqAt, popAt)
		}
		if readyAt > popAt {
			m.trace.Add(inv.span, obs.StageSched, popAt, readyAt)
		}
		if csEnd > readyAt {
			m.trace.Add(inv.span, obs.StageCS, readyAt, csEnd)
		}
		if memEnd > csEnd {
			m.trace.Add(inv.span, obs.StageMem, csEnd, memEnd)
		}
		if start > memEnd {
			m.trace.Add(inv.span, obs.StageRPC, memEnd, start)
		}
		m.trace.AddOnCore(inv.span, obs.StageService, int(c.id), start, end)
	}
	busy := end - popAt
	m.occupy(c, busy)
	m.eng.At(end, m.segmentEndEvent(inv))
}

// segmentEndEvent returns the event that ends inv's running compute segment
// on inv.core.
func (m *Machine) segmentEndEvent(inv *invocation) sim.Event {
	if inv.segmentEndFn == nil {
		inv.segmentEndFn = func() { m.segmentEnd(inv.core, inv) }
	}
	return inv.segmentEndFn
}

// resolveChildEvent returns the event that delivers one child response to
// the blocked inv.
func (m *Machine) resolveChildEvent(inv *invocation) sim.Event {
	if inv.resolveChildFn == nil {
		inv.resolveChildFn = func() { m.resolveChild(inv) }
	}
	return inv.resolveChildFn
}

// computeDur samples one compute stage's duration on core c.
func (m *Machine) computeDur(inv *invocation, op workload.Op, c *core) sim.Time {
	return serviceDur(op.Time, m.rand(streamService), inv.demand, m.perfOf(c.dom))
}

// serviceDur draws one service time from d and scales it into a duration:
// times the replay demand multiplier when one is set, over the hosting
// domain's performance factor. The demand branch keeps unscaled runs
// bit-identical to the pre-replay code path.
//
// A lognormal draw skips math.Exp when it can. Every step of scaleDur is
// monotone in the sample, so scaling both ends of ExpBounds' enclosure of
// the sample brackets the exact duration; when both ends truncate to the
// same picosecond, that is the duration math.Exp would have given. Only a
// draw whose bracket straddles a picosecond boundary (about one in 15,000
// on the paper's mix) pays for math.Exp.
func serviceDur(d dist.Dist, r *rand.Rand, demand, perf float64) sim.Time {
	ln, ok := d.(dist.Lognormal)
	if !ok {
		return scaleDur(d.Sample(r), demand, perf)
	}
	x := ln.Exponent(r)
	if lo, hi, ok := dist.ExpBounds(x); ok {
		if dur := scaleDur(lo, demand, perf); dur == scaleDur(hi, demand, perf) {
			return dur
		}
	}
	return scaleDur(math.Exp(x), demand, perf)
}

// scaleDur is the duration of a service time of us microseconds.
func scaleDur(us, demand, perf float64) sim.Time {
	if demand > 0 {
		us *= demand
	}
	return sim.FromMicros(us / perf)
}

// injectCoherenceTraffic models directory/remote-cache messages under global
// coherence: two 64B messages to the home directory's cluster.
func (m *Machine) injectCoherenceTraffic(dom *domain) {
	rng := m.rand(streamCoherence)
	dst := rng.Intn(m.topo.NumEndpoints())
	m.topo.Deliver(m.eng.Now(), int(dom.endpoint), dst, 64, rng, m.cfg.ICNContention)
	m.topo.Deliver(m.eng.Now(), dst, int(dom.endpoint), 64, rng, m.cfg.ICNContention)
}

// segmentEnd advances past the finished compute op and performs the next
// blocking op (or completes the invocation).
func (m *Machine) segmentEnd(c *core, inv *invocation) {
	inv.opIdx++
	if int(inv.opIdx) >= len(inv.svc.Ops) {
		m.complete(c, inv)
		return
	}
	op := inv.svc.Ops[inv.opIdx]
	switch op.Kind {
	case workload.OpCompute:
		// Back-to-back compute (no blocking op between): keep running.
		dur := m.computeDur(inv, op, c)
		if inv.span != 0 {
			now := m.eng.Now()
			m.trace.AddOnCore(inv.span, obs.StageService, int(c.id), now, now+dur)
		}
		m.occupy(c, dur)
		m.eng.After(dur, m.segmentEndEvent(inv))
	case workload.OpStorage:
		inv.opIdx++
		saved := m.block(c, inv, 1)
		var lat sim.Time
		var retries uint32
		if len(m.storageNIC) > 0 {
			// Lossy external storage network: the R-NIC handles pacing,
			// retransmission, and congestion control; its delivery time
			// already includes the base RTT.
			nic := m.storageNIC[inv.dom.endpoint]
			rng := m.rand(streamStorageLoss)
			before := nic.Retransmit
			delivered := nic.Send(saved, storageReqBytes, rng.Float64)
			retries = uint32(nic.Retransmit - before)
			lat = delivered - saved + sim.FromMicros(op.Time.Sample(m.rand(streamStorage)))
		} else {
			lat = storageRTT + sim.FromMicros(op.Time.Sample(m.rand(streamStorage)))
		}
		lat = shrink(0, lat, m.sp.storage)
		if m.cfg.IOViaICN {
			// Storage messages cross the on-package ICN to the package I/O
			// point and back — the funnel traffic of Fig 7.
			out, hops1 := m.ioDeliverOut(saved, int(inv.dom.endpoint), storageReqBytes)
			out = shrink(saved, out, m.sp.net)
			back, hops2 := m.ioDeliverIn(out+lat, int(inv.dom.endpoint), storageRespBytes)
			back = shrink(out+lat, back, m.sp.net)
			m.hopSum += uint64(hops1 + hops2)
			m.msgCount += 2
			if inv.span != 0 {
				if out > saved {
					m.trace.Add(inv.span, obs.StageNet, saved, out)
				}
				sid := m.trace.Add(inv.span, obs.StageStorage, out, out+lat)
				m.trace.AddRetries(sid, retries)
				if back > out+lat {
					m.trace.Add(inv.span, obs.StageNet, out+lat, back)
				}
			}
			m.eng.At(back, m.resolveChildEvent(inv))
		} else {
			if inv.span != 0 {
				sid := m.trace.Add(inv.span, obs.StageStorage, saved, saved+lat)
				m.trace.AddRetries(sid, retries)
			}
			m.eng.At(saved+lat, m.resolveChildEvent(inv))
		}
	case workload.OpCall:
		inv.opIdx++
		callees := op.Callees
		saved := m.block(c, inv, len(callees))
		if inv.span != 0 && len(callees) > 0 {
			// One send-processing span for the batch: every child departs
			// after the same per-call tax, so per-child copies would only
			// duplicate the interval.
			if dep := saved + m.cost.sendProc; dep > saved {
				m.trace.Add(inv.span, obs.StageRPC, saved, dep)
			}
		}
		for _, svcID := range callees {
			m.sendChild(c, inv, svcID, saved)
		}
	}
}

// block saves the invocation's state (a context switch), marks it blocked
// on n outstanding responses, and frees the core. It returns the time the
// save completes — outgoing RPCs depart only then, so responses can never
// race an unsaved context. With a centralized scheduler the save occupies
// the dispatcher (§4.4); otherwise it runs on the core.
func (m *Machine) block(c *core, inv *invocation, n int) sim.Time {
	inv.pending = int32(n)
	inv.resumed = true
	now := m.eng.Now()
	var saved sim.Time
	if m.cfg.Policy.Centralized {
		saved = c.dom.sched.Acquire(now, m.cost.cs)
	} else {
		saved = now + m.cost.cs
	}
	if inv.entry != nil {
		c.dom.hwq.ContextSwitch(inv.entry, 320)
	}
	if inv.span != 0 && saved > now {
		m.trace.Add(inv.span, obs.StageCS, now, saved)
	}
	m.occupy(c, saved-now)
	m.eng.At(saved, m.releaseEvent(inv))
	return saved
}

// releaseEvent returns the event that frees inv.core once inv's state save
// completes. Reading inv.core when it fires is safe: a blocked invocation
// is redispatched only after a child response resolves it, every response
// arrives at or after the save, and a same-time response event was
// scheduled after the release, so it fires after it.
func (m *Machine) releaseEvent(inv *invocation) sim.Event {
	if inv.releaseFn == nil {
		inv.releaseFn = func() { m.release(inv.core) }
	}
	return inv.releaseFn
}

// release frees the core and immediately looks for more work.
func (m *Machine) release(c *core) {
	c.dom.idle = append(c.dom.idle, c.id)
	m.kick(c.dom)
}

// sendChild issues a synchronous child RPC: sender-side processing, ICN
// traversal, then enqueue at the callee instance's domain. The message
// departs no earlier than the parent's state save completed.
func (m *Machine) sendChild(c *core, parent *invocation, svcID int, saved sim.Time) {
	rng := m.rand(streamICN)
	if m.local != nil {
		// Placed machine: routing is the placement map, not a lottery — a
		// call to a service not hosted here always ships to a hosting peer.
		if !m.local[svcID] {
			m.sendChildRemote(c, parent, svcID, saved)
			return
		}
	} else if m.remoteSend != nil && m.cfg.RemoteCallFrac > 0 && rng.Float64() < m.cfg.RemoteCallFrac {
		m.sendChildRemote(c, parent, svcID, saved)
		return
	}
	child := m.newInv()
	child.svc = m.catalog.Service(svcID)
	child.parent = parent
	child.demand = parent.demand
	if m.cfg.TreeAffinity {
		child.dom = parent.dom
	} else {
		child.dom = m.pickInstance(svcID)
	}
	dep := saved + m.cost.sendProc
	src := m.srcEndpoint(c)
	dst := m.dstEndpoint(child.dom, rng)
	at, hops := m.topo.Deliver(dep, src, dst, reqMsgBytes, rng, m.cfg.ICNContention)
	m.hopSum += uint64(hops)
	m.msgCount++
	at += m.cost.nic
	at = shrink(dep, at, m.sp.net)
	if m.remoteSend == nil && m.cfg.RemoteCallFrac > 0 && rng.Float64() < m.cfg.RemoteCallFrac {
		// Uncoupled (symmetric-server) approximation: the child still runs
		// locally; the inter-server wire time is a probabilistic latency add.
		child.remote = true
		at += m.cfg.RemoteRTT / 2
	}
	if parent.span != 0 {
		child.span = m.trace.Start(parent.span, obs.StageInvoke, int16(svcID), dep)
		if at > dep {
			m.trace.Add(child.span, obs.StageNet, dep, at)
		}
	}
	m.eng.At(at, child.enqueueFn)
}

// sendChildRemote ships a child RPC to a peer server through the fleet
// coupling: sender-side processing, egress across the on-package ICN (when
// I/O is routed through it), half the inter-server RTT, then the fleet
// delivers it to a peer machine's ingress. The response retraces the same
// path. On this machine's trace the round trip is one invoke span whose
// wire legs are StageNet; when traced, the fleet mints a remote-link ID so
// the peer records the served subtree in its own collector under the same
// link, and obs.Merge stitches that subtree between the wire legs — tail
// blame then charges the remote middle to the peer server's stages instead
// of an opaque StageOther blob.
func (m *Machine) sendChildRemote(c *core, parent *invocation, svcID int, saved sim.Time) {
	dep := saved + m.cost.sendProc
	out := dep
	if m.cfg.IOViaICN {
		var hops int
		out, hops = m.ioDeliverOut(dep, m.srcEndpoint(c), reqMsgBytes)
		m.hopSum += uint64(hops)
		m.msgCount++
		out = shrink(dep, out, m.sp.net)
	}
	// The inter-server half-RTT is never what-if-scaled: it is the PDES
	// coupling's conservative lookahead floor (see StageSpeedups.Net).
	depart := out + m.cfg.RemoteRTT/2
	var span uint64
	if parent.span != 0 {
		span = m.trace.Start(parent.span, obs.StageInvoke, int16(svcID), dep)
		if depart > dep {
			m.trace.Add(span, obs.StageNet, dep, depart)
		}
	}
	var token int32
	if n := len(m.callFree); n > 0 {
		token = m.callFree[n-1]
		m.callFree = m.callFree[:n-1]
	} else {
		token = int32(len(m.calls))
		m.calls = append(m.calls, remoteCall{})
	}
	m.calls[token] = remoteCall{parent: parent, span: span}
	link := m.remoteSend(svcID, parent.demand, depart, span != 0, token)
	if span != 0 {
		m.trace.SetLink(span, link)
	}
}

// RemoteResponse delivers the response to the child RPC that
// sendChildRemote handed the fleet under token: done is the virtual time
// the response left the peer server. The response crosses back over the
// wire and this server's ingress path, then resolves the blocked parent.
// It frees the call's table slot.
func (m *Machine) RemoteResponse(token int32, done sim.Time) {
	call := m.calls[token]
	m.calls[token] = remoteCall{}
	m.callFree = append(m.callFree, token)
	back := done + m.cfg.RemoteRTT/2
	at := back
	if m.cfg.IOViaICN {
		var hops int
		at, hops = m.ioDeliverIn(back, int(call.parent.dom.endpoint), respMsgBytes)
		m.hopSum += uint64(hops)
		m.msgCount++
	}
	at += m.cost.nic
	at = shrink(back, at, m.sp.net)
	if call.span != 0 {
		if at > done {
			m.trace.Add(call.span, obs.StageNet, done, at)
		}
		m.trace.End(call.span, at)
	}
	m.eng.At(at, m.resolveChildEvent(call.parent))
}

// ioDeliverOut routes an outbound (storage/external) message from a domain
// endpoint to the package I/O attach point.
func (m *Machine) ioDeliverOut(dep sim.Time, from, size int) (sim.Time, int) {
	return m.topo.ToIO(dep, from, size, m.rand(streamICN), m.cfg.ICNContention)
}

// ioDeliverIn routes an inbound message from the package I/O attach point
// to a domain endpoint.
func (m *Machine) ioDeliverIn(dep sim.Time, to, size int) (sim.Time, int) {
	return m.topo.FromIO(dep, to, size, m.rand(streamICN), m.cfg.ICNContention)
}

// srcEndpoint maps a sending core to its topology endpoint.
func (m *Machine) srcEndpoint(c *core) int {
	if m.cfg.Topo == MeshTopo && m.cfg.Domains == 1 {
		return int(c.id) % m.topo.NumEndpoints()
	}
	return int(c.dom.endpoint)
}

// dstEndpoint maps a destination domain to its endpoint.
func (m *Machine) dstEndpoint(dom *domain, rng *rand.Rand) int {
	if m.cfg.Topo == MeshTopo && m.cfg.Domains == 1 {
		return rng.Intn(m.topo.NumEndpoints())
	}
	return int(dom.endpoint)
}

// resolveChild delivers one response to a blocked parent; the last response
// unblocks it.
func (m *Machine) resolveChild(parent *invocation) {
	parent.pending--
	if parent.pending > 0 {
		return
	}
	m.unblock(parent)
}

// unblock makes a blocked invocation runnable again in its domain.
func (m *Machine) unblock(inv *invocation) {
	dom := inv.dom
	if inv.span != 0 {
		inv.enqAt = m.eng.Now()
	}
	if inv.entry != nil {
		dom.hwq.Unblock(inv.entry)
		if m.mx != nil {
			m.observeQueueDepth(1)
		}
		m.kick(dom)
		return
	}
	// Software: re-enqueued at the tail (arrival priority lost).
	m.swqEnqueue(inv)
}

// swqEnqueue runs the software enqueue critical section, serialized on the
// domain's scheduler resource; the invocation joins the queue when it
// completes.
func (m *Machine) swqEnqueue(inv *invocation) {
	grant := inv.dom.sched.Acquire(m.eng.Now(), m.cost.enqueue)
	if inv.swqReadyFn == nil {
		inv.swqReadyFn = func() { m.swqReady(inv) }
	}
	m.eng.At(grant, inv.swqReadyFn)
}

// swqReady appends inv to its domain's software queue and wakes a core. It
// is an admission only before inv's first dispatch; later it is a
// re-enqueue after unblocking.
func (m *Machine) swqReady(inv *invocation) {
	inv.dom.swq.push(inv)
	if m.mx != nil {
		if !inv.dispatched {
			m.mx.admitSWQ.Inc()
		}
		m.observeQueueDepth(1)
	}
	m.kick(inv.dom)
}

// complete finishes an invocation: the Complete instruction, the response
// message, and statistics. It ends inv's life.
func (m *Machine) complete(c *core, inv *invocation) {
	m.Invocations++
	if inv.entry != nil {
		c.dom.hwq.Complete(inv.entry)
		// Freed RQ slots admit NIC-buffered requests.
		c.dom.nicbuf.Drain(c.dom.hwq, admitBuffered)
	}
	m.respond(inv)
	m.freeInv(inv)
	m.release(c)
}

// admitBuffered binds a NIC-buffered invocation to the RQ entry Drain
// admitted it as.
func admitBuffered(e *rq.Entry) { e.Ctx.UserData.(*invocation).entry = e }

// respond routes an invocation's result to its parent or, for roots, out of
// the package, recording end-to-end latency.
func (m *Machine) respond(inv *invocation) {
	rng := m.rand(streamICN)
	if inv.parent == nil {
		now := m.eng.Now()
		at := now + ingressLatency
		if m.cfg.IOViaICN {
			at, _ = m.ioDeliverOut(now, int(inv.dom.endpoint), respMsgBytes)
			at += ingressLatency
		}
		if inv.span != 0 {
			if at > now {
				m.trace.Add(inv.span, obs.StageIngress, now, at)
			}
			m.trace.End(inv.span, at)
		}
		if inv.replyMode != noReply {
			m.replyHook(inv.reply, at, false)
		}
		if inv.replyMode == peerReply {
			// Peer-served child RPC (coupled fleet): the response left via
			// the top-level NIC like a root's, but the caller lives on
			// another server, so this server records nothing.
			return
		}
		m.scheduleRootDone(inv, at)
		return
	}
	parent := inv.parent
	src := int(inv.dom.endpoint)
	dst := int(parent.dom.endpoint)
	at, hops := m.topo.Deliver(m.eng.Now(), src, dst, respMsgBytes, rng, m.cfg.ICNContention)
	m.hopSum += uint64(hops)
	m.msgCount++
	at += m.cost.nic
	at = shrink(m.eng.Now(), at, m.sp.net)
	if inv.remote {
		at += m.cfg.RemoteRTT / 2
	}
	if inv.span != 0 {
		if at > m.eng.Now() {
			m.trace.Add(inv.span, obs.StageNet, m.eng.Now(), at)
		}
		m.trace.End(inv.span, at)
	}
	m.eng.At(at, m.resolveChildEvent(parent))
}

// scheduleRootDone counts root inv's completion at at, when its response
// has left the package, taking a record from the free list or allocating
// one and binding its event.
func (m *Machine) scheduleRootDone(inv *invocation, at sim.Time) {
	var d *rootDone
	if n := len(m.doneFree); n > 0 {
		d = m.doneFree[n-1]
		m.doneFree = m.doneFree[:n-1]
	} else {
		d = &rootDone{}
		d.fire = func() { m.rootDone(d) }
		m.doneAllocs++
	}
	if inv.measured {
		d.measured = true
		d.lat = (at - inv.start).Micros()
		d.root = inv.svc.ID
	}
	m.eng.At(at, d.fire)
}

// rootDone records one root's completion and recycles its record.
func (m *Machine) rootDone(d *rootDone) {
	if d.measured {
		lat := d.lat
		m.Latency.Add(lat)
		if m.tele != nil {
			m.tele.ObserveLatency(lat)
		}
		if m.teleCtl != nil {
			m.teleCtl.ObserveLatency(lat)
		}
		byRoot := m.LatencyByRoot[d.root]
		if byRoot == nil {
			byRoot = &stats.Sample{}
			m.LatencyByRoot[d.root] = byRoot
		}
		byRoot.Add(lat)
	}
	m.Completed++
	if m.respondHook != nil {
		m.respondHook()
	}
	*d = rootDone{fire: d.fire}
	m.doneFree = append(m.doneFree, d)
}

// Utilization reports aggregate core busy time over the window.
func (m *Machine) Utilization(window sim.Time) float64 {
	if window <= 0 {
		return 0
	}
	return float64(m.coreBusy) / float64(sim.Time(m.cfg.Cores)*window)
}

// MeanHops reports the average ICN path length observed.
func (m *Machine) MeanHops() float64 {
	if m.msgCount == 0 {
		return 0
	}
	return float64(m.hopSum) / float64(m.msgCount)
}
