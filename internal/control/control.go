// Package control closes the feedback loops the paper's evaluation cluster
// leaves open: what a cloud front-end does when a server answers "queue
// full". The coupled fleet's dispatcher (internal/fleet) owns one Controller
// and routes every client root through it, which adds three deterministic
// control loops over virtual time:
//
//   - Retry with capped exponential backoff + jitter: a root rejected at a
//     server's admission check (§4.3: RQ and NIC buffer both full) is
//     re-dispatched through the balancer after RetryBase·2^(k-1), clamped to
//     RetryCap, minus a uniform jitter slice — until MaxRetries attempts are
//     exhausted and the root is permanently rejected back to the client.
//     RetryCap <= 0 models the classic metastable failure mode: uncapped
//     immediate retries amplify an overload into a self-sustaining storm.
//   - Tail hedging: if a dispatched root has not answered after HedgeAfter,
//     a duplicate ships to a second balancer pick; the first response wins
//     and the loser's response is discarded at the dispatcher (cancellation
//     happens at response time — the duplicate's server-side work is the
//     well-known hedging overhead, surfaced as HedgeWaste).
//   - Load shedding driven by the SLO watchdog: every server runs a
//     dedicated telemetry sampler with a single slo.burn rule; its
//     fire/resolve edges (telemetry.Options.OnAlert, evaluated at tick
//     boundaries) travel to the dispatcher as inter-shard messages, and
//     while any server's budget burns the dispatcher rejects new arrivals
//     with probability ShedProb before they consume a dispatch.
//   - Autoscaling on windowed client p99: the controller re-evaluates the
//     active server set at PDES window barriers (throttled to ScaleWindow).
//     Growth is lagged by ScaleLag — a freshly activated server starts cold
//     (idle, empty queues) and only then joins the routable prefix; shrink
//     is immediate, with in-flight work on a deactivated server left to
//     finish.
//
// Everything the controller does is a pure function of virtual time and a
// dedicated sim.Streams bundle, never of wall clock or worker counts, so a
// controlled fleet keeps the PDES contract: bit-identical results for every
// fleet.Config.ShardWorkers value including the -1 single-engine reference.
package control

import (
	"fmt"
	"math/rand"
	"sort"

	"umanycore/internal/sim"
	"umanycore/internal/stats"
)

// Config enables and tunes the dispatcher's control loops. The zero value
// disables everything (fleet runs are unchanged). Pure data — it embeds in
// fleet.Config and the sweep cache's canonical preimage.
type Config struct {
	// MaxRetries is the retry budget per client root: a rejected (or shed)
	// root is re-dispatched up to MaxRetries times before it is permanently
	// rejected. 0 disables retries.
	MaxRetries int
	// RetryBase is the backoff before retry k: RetryBase * 2^(k-1).
	// 0 with MaxRetries > 0 retries immediately — the storm configuration.
	RetryBase sim.Time
	// RetryCap clamps the exponential backoff. <= 0 leaves it uncapped.
	RetryCap sim.Time
	// RetryJitter in [0,1] subtracts a uniform slice of the backoff:
	// delay -= delay * RetryJitter * U[0,1), drawn from the controller's
	// dedicated "control-backoff" stream.
	RetryJitter float64
	// HedgeAfter, when positive, arms a hedge timer on each primary
	// dispatch: if the root has not answered after HedgeAfter, a duplicate
	// ships to a second balancer pick (steered off the primary server when
	// more than one is active). At most one hedge per root.
	HedgeAfter sim.Time
	// ShedProb in [0,1] is the probability an arriving root is rejected at
	// the dispatcher while any server's slo.burn alert is firing. 0
	// disables shedding.
	ShedProb float64
	// ShedSLOMicros is the per-request P99 objective of the shedding
	// watchdog (the slo.burn rule's SLOMicros; budget 1%, threshold 1).
	// Required when ShedProb > 0.
	ShedSLOMicros float64
	// ShedWindow is the shedding watchdog's tick interval (default 1ms).
	ShedWindow sim.Time
	// ScaleMin, when positive, turns on autoscaling: the run starts with
	// ScaleMin active servers (the rest built but cold) and grows/shrinks
	// the active prefix between ScaleMin and the fleet size. 0 keeps every
	// server active.
	ScaleMin int
	// ScaleP99Micros is the autoscaler's target: scale up when the windowed
	// client p99 exceeds it, down when the window stays below half of it.
	ScaleP99Micros float64
	// ScaleLag delays an activation: a scale-up decided at barrier t routes
	// traffic only from t+ScaleLag — the cold-start lag of real autoscalers.
	ScaleLag sim.Time
	// ScaleWindow is the autoscaler's evaluation window (default 5ms).
	ScaleWindow sim.Time
}

// Enabled reports whether any control loop is configured.
func (c Config) Enabled() bool {
	return c.MaxRetries > 0 || c.HedgeAfter > 0 || c.Sheds() || c.Scales()
}

// Sheds reports whether burn-triggered shedding is configured.
func (c Config) Sheds() bool { return c.ShedProb > 0 }

// Scales reports whether autoscaling is configured.
func (c Config) Scales() bool { return c.ScaleMin > 0 }

// Validate rejects configurations outside the model's domain.
func (c Config) Validate() error {
	switch {
	case c.MaxRetries < 0:
		return fmt.Errorf("control: MaxRetries %d < 0", c.MaxRetries)
	case c.RetryBase < 0 || c.HedgeAfter < 0 || c.ScaleLag < 0 || c.ShedWindow < 0 || c.ScaleWindow < 0:
		return fmt.Errorf("control: negative duration in config")
	case c.RetryJitter < 0 || c.RetryJitter > 1:
		return fmt.Errorf("control: RetryJitter %v outside [0,1]", c.RetryJitter)
	case c.ShedProb < 0 || c.ShedProb > 1:
		return fmt.Errorf("control: ShedProb %v outside [0,1]", c.ShedProb)
	case c.ShedProb > 0 && c.ShedSLOMicros <= 0:
		return fmt.Errorf("control: shedding needs ShedSLOMicros > 0 (got %v)", c.ShedSLOMicros)
	case c.ScaleMin < 0:
		return fmt.Errorf("control: ScaleMin %d < 0", c.ScaleMin)
	case c.ScaleMin > 0 && c.ScaleP99Micros <= 0:
		return fmt.Errorf("control: autoscaling needs ScaleP99Micros > 0 (got %v)", c.ScaleP99Micros)
	}
	return nil
}

// ShedRuleName names the slo.burn watchdog rule the fleet installs on each
// server's shedding sampler (a 1%-budget burn rate against ShedSLOMicros).
// Exported so the fleet and its tests agree on the rule name.
const ShedRuleName = "slo.burn"

// Stats is the controller's client-level accounting — what the fleet's
// clients experienced, as opposed to the per-attempt accounting each server
// keeps. With retries and hedging one client root can cost several server
// attempts; the identity Attempts == Submitted + Retries + Hedges - Shed
// always holds, and when every root terminated inside the horizon
// (Unfinished == 0) Attempts also equals the sum of server-side root
// submissions.
type Stats struct {
	// Submitted counts client roots arriving at the dispatcher.
	Submitted uint64
	// Completed counts client roots answered with a success (first
	// response for hedged roots).
	Completed uint64
	// Rejected counts client roots permanently rejected: the retry budget
	// was exhausted by server rejects and/or dispatcher sheds.
	Rejected uint64
	// Unfinished counts roots still in flight (or waiting out a backoff)
	// when the horizon ended.
	Unfinished int64
	// Retries counts re-dispatches after a reject or shed.
	Retries uint64
	// Shed counts attempts dropped at the dispatcher while slo.burn fired.
	Shed uint64
	// Attempts counts dispatched server attempts (primaries, retries and
	// hedges; shed attempts never dispatch).
	Attempts uint64
	// Hedges counts duplicate dispatches fired by the hedge timer.
	Hedges uint64
	// HedgeWins counts hedged roots whose duplicate responded first.
	HedgeWins uint64
	// HedgeWaste counts responses discarded at the dispatcher because the
	// root had already been answered — the hedging overhead.
	HedgeWaste uint64
	// BurnEdges counts slo.burn fire edges received from server watchdogs.
	BurnEdges uint64
	// ScaleUps / ScaleDowns count autoscaler decisions; ActiveServers is
	// the routable set's final size.
	ScaleUps      uint64
	ScaleDowns    uint64
	ActiveServers int
	// Latency summarizes the client-perceived sample: first submission to
	// first response, backoff waits and hedge races included, for measured
	// (post-warmup) roots that completed.
	Latency   stats.Summary
	TailToAvg float64
	// Sample is the raw client-perceived latency sample (microseconds).
	Sample *stats.Sample
}

// RejectRate is the client-level reject fraction: permanently rejected
// roots over responded roots (completed + rejected).
func (s *Stats) RejectRate() float64 {
	if resp := s.Completed + s.Rejected; resp > 0 {
		return float64(s.Rejected) / float64(resp)
	}
	return 0
}

// root tracks one client request through retries and hedging.
type root struct {
	t0       sim.Time
	attempts int // retries consumed so far
	inflight int // dispatched attempts not yet answered
	primary  int // server of the latest primary dispatch
	done     bool
	hedged   bool
	hedgeOn  bool
	hedge    sim.Handle
}

// attempt is one dispatched attempt awaiting its server's answer: the root
// it serves and whether it is the hedge.
type attempt struct {
	r     *root
	hedge bool
}

// Controller is the dispatcher-side control loop. It lives entirely on the
// dispatcher's engine (PDES shard 0); servers talk to it only through
// messages the fleet relays over the coupling fabric, so its state is
// single-shard and the fleet's determinism contract extends to it.
type Controller struct {
	cfg     Config
	eng     *sim.Engine
	servers int
	warmup  sim.Time

	// Dedicated randomness: engine-independent, seeded from the run seed,
	// distinct from every server bundle and dispatcher engine stream.
	backoffRng *rand.Rand
	shedRng    *rand.Rand

	// pick routes one attempt through the balancer over the active set;
	// send dispatches an attempt to a server under a token, which the fleet
	// hands back to Response (on this engine, at the response's
	// dispatcher-arrival time) with the admission outcome.
	pick func() int
	send func(server int, token int32)
	// attempts holds the dispatched attempts awaiting an answer, indexed by
	// token; attemptFree holds the free slots' tokens.
	attempts    []attempt
	attemptFree []int32

	// burnFiring tracks each server's slo.burn state; shedding counts the
	// firing servers rather than re-deriving the any() predicate per edge.
	burnFiring []bool
	firing     int

	// active is the routable server prefix; target includes activations
	// still waiting out ScaleLag.
	active   int
	target   int
	winLat   []float64
	nextEval sim.Time

	stats Stats
}

// controlSeedIndex derives the controller's stream-bundle seed from the run
// seed, far outside the server-index domain (servers use 0..n-1).
const controlSeedIndex = int64(0x636f6e74726f6c) // "control"

// New builds a controller for a fleet of servers, measuring client latency
// for roots arriving at or after warmup. Bind must be called before load.
func New(eng *sim.Engine, cfg Config, servers int, warmup sim.Time, seed int64) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if servers < 2 {
		panic("control: the control loop needs a coupled fleet of >= 2 servers")
	}
	streams := sim.NewStreams(sim.DeriveSeed(seed, controlSeedIndex))
	c := &Controller{
		cfg:        cfg,
		eng:        eng,
		servers:    servers,
		warmup:     warmup,
		backoffRng: streams.Rand("control-backoff"),
		shedRng:    streams.Rand("control-shed"),
		burnFiring: make([]bool, servers),
		active:     servers,
		target:     servers,
	}
	if cfg.Scales() {
		c.active = min(cfg.ScaleMin, servers)
		c.target = c.active
		c.nextEval = c.scaleWindow()
	}
	return c
}

// Bind installs the fleet's routing hooks: pick chooses a server through
// the balancer (over ActiveServers), send ships one attempt under a token;
// the fleet reports the attempt's outcome with Response(token, ...) on the
// controller's engine.
func (c *Controller) Bind(pick func() int, send func(server int, token int32)) {
	c.pick, c.send = pick, send
}

// ActiveServers is the routable prefix the balancer may pick from.
func (c *Controller) ActiveServers() int { return c.active }

// AdmitRoot handles one client arrival at the dispatcher's current time.
func (c *Controller) AdmitRoot() {
	c.stats.Submitted++
	r := &root{t0: c.eng.Now(), primary: -1}
	c.try(r)
}

// try runs one admission attempt: the shedding gate, then a dispatch.
func (c *Controller) try(r *root) {
	if c.firing > 0 && c.cfg.Sheds() && c.shedRng.Float64() < c.cfg.ShedProb {
		c.stats.Shed++
		c.handleReject(r)
		return
	}
	c.dispatch(r, false)
}

// dispatch ships one attempt to a balancer pick and arms the hedge timer
// on primaries.
func (c *Controller) dispatch(r *root, hedge bool) {
	s := c.pick()
	if hedge && c.active > 1 && s == r.primary {
		// The hedge exists to escape the primary's queue; steer a same-server
		// pick to the next active peer.
		s = (s + 1) % c.active
	}
	if !hedge {
		r.primary = s
	}
	r.inflight++
	c.stats.Attempts++
	var token int32
	if n := len(c.attemptFree); n > 0 {
		token = c.attemptFree[n-1]
		c.attemptFree = c.attemptFree[:n-1]
	} else {
		token = int32(len(c.attempts))
		c.attempts = append(c.attempts, attempt{})
	}
	c.attempts[token] = attempt{r: r, hedge: hedge}
	c.send(s, token)
	if !hedge && c.cfg.HedgeAfter > 0 && !r.hedged {
		r.hedgeOn = true
		r.hedge = c.eng.After(c.cfg.HedgeAfter, func() { c.fireHedge(r) })
	}
}

// fireHedge launches the duplicate if the primary is still unanswered.
func (c *Controller) fireHedge(r *root) {
	r.hedgeOn = false
	if r.done || r.inflight == 0 {
		return
	}
	r.hedged = true
	c.stats.Hedges++
	c.dispatch(r, true)
}

// cancelHedge disarms a pending hedge timer.
func (c *Controller) cancelHedge(r *root) {
	if r.hedgeOn {
		r.hedgeOn = false
		c.eng.Cancel(r.hedge)
	}
}

// Response handles the outcome of the attempt dispatched under token,
// arriving back at the dispatcher, and frees the token.
func (c *Controller) Response(token int32, rejected bool) {
	a := c.attempts[token]
	c.attempts[token] = attempt{}
	c.attemptFree = append(c.attemptFree, token)
	r := a.r
	r.inflight--
	if r.done {
		// The race was already decided; this is the hedge loser (or a
		// straggling reject) — discard.
		c.stats.HedgeWaste++
		return
	}
	if !rejected {
		r.done = true
		c.cancelHedge(r)
		c.stats.Completed++
		if a.hedge {
			c.stats.HedgeWins++
		}
		lat := (c.eng.Now() - r.t0).Micros()
		c.winLat = append(c.winLat, lat)
		if r.t0 >= c.warmup {
			if c.stats.Sample == nil {
				c.stats.Sample = &stats.Sample{}
			}
			c.stats.Sample.Add(lat)
		}
		return
	}
	if r.inflight > 0 {
		// A hedged sibling is still racing; it decides the root's fate.
		return
	}
	c.cancelHedge(r)
	c.handleReject(r)
}

// handleReject consumes one retry (or permanently rejects) after every
// outstanding attempt of the root was rejected or shed.
func (c *Controller) handleReject(r *root) {
	if r.attempts >= c.cfg.MaxRetries {
		r.done = true
		c.stats.Rejected++
		return
	}
	r.attempts++
	c.stats.Retries++
	c.eng.After(c.backoff(r.attempts), func() { c.try(r) })
}

// backoff computes the delay before retry k (1-based): capped exponential
// with uniform jitter.
func (c *Controller) backoff(k int) sim.Time {
	d := c.cfg.RetryBase
	for i := 1; i < k; i++ {
		if d > c.cfg.RetryCap && c.cfg.RetryCap > 0 {
			break // already clamped; avoid pointless doubling and overflow
		}
		if next := d * 2; next > d {
			d = next
		}
	}
	if c.cfg.RetryCap > 0 && d > c.cfg.RetryCap {
		d = c.cfg.RetryCap
	}
	if c.cfg.RetryJitter > 0 && d > 0 {
		d -= sim.Time(float64(d) * c.cfg.RetryJitter * c.backoffRng.Float64())
	}
	return d
}

// BurnEdge records one server watchdog's slo.burn transition. The fleet
// relays each fire/resolve edge (evaluated at the server's telemetry tick)
// to the dispatcher shard as a coupling message, so shedding state changes
// at tick boundaries plus one wire delay — deterministically.
func (c *Controller) BurnEdge(server int, firing bool) {
	if c.burnFiring[server] == firing {
		return
	}
	c.burnFiring[server] = firing
	if firing {
		c.firing++
		c.stats.BurnEdges++
	} else {
		c.firing--
	}
}

// AtBarrier runs the autoscaler at a PDES window barrier (every shard
// quiescent at time limit — the fleet calls this from the coupling's post
// hook). Evaluation is throttled to ScaleWindow; barrier times are
// deterministic, so scale decisions are too.
func (c *Controller) AtBarrier(limit sim.Time) {
	if !c.cfg.Scales() || limit < c.nextEval {
		return
	}
	c.nextEval = limit + c.scaleWindow()
	if len(c.winLat) == 0 {
		return
	}
	p99 := windowP99(c.winLat)
	c.winLat = c.winLat[:0]
	switch {
	case p99 > c.cfg.ScaleP99Micros && c.target < c.servers:
		c.target++
		c.stats.ScaleUps++
		// The new server joins the routable prefix after the cold-start
		// lag. Scheduling at limit(+lag) from the post hook is safe: every
		// shard has advanced exactly to limit, so the event is never in any
		// shard's past (see pdes.Net.Run).
		c.eng.At(limit+c.cfg.ScaleLag, func() { c.active++ })
	case p99 <= c.cfg.ScaleP99Micros/2 && c.target > c.cfg.ScaleMin && c.active == c.target:
		c.target--
		c.active--
		c.stats.ScaleDowns++
	}
}

func (c *Controller) scaleWindow() sim.Time {
	if c.cfg.ScaleWindow > 0 {
		return c.cfg.ScaleWindow
	}
	return 5 * sim.Millisecond
}

// windowP99 is the nearest-rank p99 of one evaluation window.
func windowP99(xs []float64) float64 {
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	idx := int(float64(len(tmp))*0.99 + 0.5)
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// Peek copies the live counters for barrier-time instrument updates (the
// control.* metrics). Latency and the derived fields are only populated by
// Finish; the raw sample stays private to the controller.
func (c *Controller) Peek() Stats {
	s := c.stats
	s.ActiveServers = c.active
	s.Sample = nil
	return s
}

// Finish closes the accounting and returns the client-level stats.
func (c *Controller) Finish() *Stats {
	s := c.stats
	s.Unfinished = int64(s.Submitted) - int64(s.Completed) - int64(s.Rejected)
	s.ActiveServers = c.active
	if s.Sample != nil && s.Sample.N() > 0 {
		s.Latency = s.Sample.Summarize()
		s.TailToAvg = s.Sample.TailToAvg()
	}
	return &s
}
