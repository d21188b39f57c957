package fleet

import (
	"fmt"
	"time"

	"umanycore/internal/control"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/pdes"
	"umanycore/internal/sim"
	"umanycore/internal/telemetry"
	"umanycore/internal/workload"
)

// The pdes.Msg kinds of the coupled fleet: what a message asks its
// destination shard to do. Each kind uses only the Msg fields listed.
const (
	// msgRoot: the dispatcher hands a server one root of its own request mix.
	msgRoot uint8 = iota
	// msgTypedRoot: a root of an explicit type (graph mode, trace replay):
	// Service and Demand.
	msgTypedRoot
	// msgCtlRoot: a control-loop attempt; Token is the controller's.
	msgCtlRoot
	// msgCtlReply: a server answers a control attempt to the dispatcher:
	// Token and Flag (rejected at admission).
	msgCtlReply
	// msgCall: a cross-server child RPC: Service, Demand, Link, and Token,
	// the caller's remote-call table slot; the caller is the source shard.
	msgCall
	// msgReply: the peer's response to a msgCall: Token and Time, when the
	// response left the peer.
	msgReply
	// msgBurn: a server's slo.burn watchdog edge to the dispatcher: Flag
	// (firing).
	msgBurn
)

// coupledState is the storage a coupled run keeps for the next one: the
// engine every shard runs on and the servers' random-stream bundles. Like
// machine.Run's engine pool, reuse only saves allocation: each run resets
// the engine and re-seeds the bundles, so it draws exactly what fresh ones
// would.
type coupledState struct {
	eng  *sim.Engine
	rngs []*sim.Streams
}

var coupledPool = sim.FreeList[*coupledState]{
	New: func() *coupledState { return &coupledState{eng: sim.NewEngine(0)} },
}

// take readies the pooled state for a run of n servers under seed: the
// engine reset to seed and server s's bundle seeded with
// sim.DeriveSeed(seed, s).
func (st *coupledState) take(n int, seed int64) (*sim.Engine, []*sim.Streams) {
	st.eng.Reset(seed)
	for s := range n {
		if s == len(st.rngs) {
			st.rngs = append(st.rngs, sim.NewStreams(0))
		}
		st.rngs[s].Reset(sim.DeriveSeed(seed, int64(s)))
	}
	return st.eng, st.rngs[:n]
}

// runCoupled is the multi-server coupled fleet on the conservative-lookahead
// PDES fabric (internal/pdes).
//
// Shard layout: shard 0 is the front-end dispatcher — the arrival process
// and the balancer live there — and shard s+1 is server s. The lookahead is
// half the inter-server RTT, the one-way wire time, which bounds every
// cross-shard interaction:
//
//   - a dispatched root pays the front-end→server hop (one wire delay),
//   - a cross-server child RPC departs at out + RTT/2 (sendChildRemote has
//     already paid the outbound half when it hands the fleet the request),
//   - its response ships back at done + RTT/2.
//
// So every message is timestamped at least one lookahead after its sender's
// clock, and the fabric's window invariant — no shard ever receives an
// event in its past — holds without any special-casing.
//
// Every shard runs on one engine: windows run one after another, so
// engines of their own would buy nothing but more heaps to peek. The
// per-shard statistics (pdes.Stats.ShardWindows, ShardEvents) come from the
// engine's owner tags: each shard's setup runs under its shard id as the
// engine's tag (0 for the dispatcher, s+1 for server s), message firings
// carry their destination's, and everything a callback schedules inherits
// the firing event's.
//
// Determinism contract: the result is a function of (fc, app, totalRPS,
// rc, seed) alone, because (a) each server draws all its randomness from a
// sim.Streams bundle seeded by server index (never from the engine), (b)
// the dispatcher's arrival and balancer streams come from the engine,
// seeded with the run seed, and (c) inter-shard messages are delivered in
// the canonical (time, source shard, send seq) order. The balancer's queue
// views are snapshotted at window barriers, so routing decisions see peer
// state at most one wire delay stale — the same information lag a physical
// front-end has. The snapshot is a copy of per-server answered counters,
// which each server bumps through its respond hook as it completes or
// rejects a root.
func runCoupled(fc Config, app *workload.App, totalRPS float64, rc machine.RunConfig, seed int64) *Result {
	start := time.Now()
	n := fc.Servers
	cross := fc.crossFrac()
	rc = rc.Normalized()
	rc.App = app
	rc.RPS = totalRPS / float64(n)
	rc.Seed = seed
	horizon := rc.Duration + rc.Drain

	// Lookahead = one wire direction. The fabric needs it strictly positive,
	// which Validate guarantees: a fleet with a zero RTT has no minimum
	// cross-server latency to exploit.
	lookahead := fc.InterServerRTT / 2

	// The engine is seeded with the run seed, which the dispatcher's
	// "arrivals" and "fleet-lb" streams derive from; server randomness comes
	// from Streams bundles.
	//
	// Every cross-shard interaction is a typed message (see msgRoot) that
	// handle interprets on the destination shard; it reads machines and ctl,
	// which are built below, before the first message can fire.
	var machines []*machine.Server
	var ctl *control.Controller
	handle := func(src, dst int, m pdes.Msg) {
		switch m.Kind {
		case msgRoot:
			machines[dst-1].SubmitRoot()
		case msgTypedRoot:
			machines[dst-1].SubmitRootAs(int(m.Service), m.Demand)
		case msgCtlRoot:
			machines[dst-1].SubmitRootCtl(machine.Reply{Origin: int32(src), Token: m.Token})
		case msgCtlReply:
			ctl.Response(m.Token, m.Flag)
		case msgCall:
			machines[dst-1].SubmitRemote(int(m.Service), m.Demand, m.Link, machine.Reply{Origin: int32(src), Token: m.Token})
		case msgReply:
			machines[dst-1].RemoteResponse(m.Token, m.Time)
		case msgBurn:
			ctl.BurnEdge(src-1, m.Flag)
		default:
			panic(fmt.Sprintf("fleet: unknown message kind %d", m.Kind))
		}
	}
	// The pooled state goes back only after a run that returns: a run that
	// panicked may have left its engine mid-event.
	pooled := coupledPool.Get()
	eng, rngs := pooled.take(n, seed)
	net := pdes.NewFabric(eng, lookahead, handle)
	for range n + 1 {
		net.AddShard()
	}

	// Build the servers with machine.Run's harness. Every server draws its
	// randomness from a seed-derived stream bundle (engine-independent). The
	// engine is shared, so no server reports engine vitals.
	machines = make([]*machine.Server, n)
	// answered[s] counts the roots server s has answered (completions and
	// admission rejects) as they happen; the barrier hook publishes it to
	// the dispatcher's view.
	answered := make([]uint64, n)
	for s := range machines {
		// In graph mode this server hosts only its placed services; call
		// edges to services living elsewhere ship through the fabric.
		eng.SetTag(int32(s + 1))
		machines[s] = machine.NewServer(eng, fc.serverConfig(s, cross), rc, fc.hostedOn(s), machine.SharedEngine)
		machines[s].SetRNG(rngs[s])
		// Answers to peers' child RPCs and to control-dispatched roots ship
		// back one wire delay after they leave this server. The reply's
		// origin says which: the dispatcher is shard 0.
		self := s + 1
		machines[s].SetRespondHook(func() { answered[s]++ })
		machines[s].SetReplyHook(func(to machine.Reply, done sim.Time, rejected bool) {
			kind := msgReply
			if to.Origin == 0 {
				kind = msgCtlReply
			}
			net.Send(self, int(to.Origin), done+lookahead, pdes.Msg{Kind: kind, Token: to.Token, Time: done, Flag: rejected})
		})
	}

	// Front-end control loop (retry/backoff, hedging, shedding, autoscaling
	// — see internal/control). The controller lives on the dispatcher shard;
	// everything it learns from servers arrives as coupling messages, so its
	// decisions depend on server state only through them.
	if fc.controlOn() {
		ctl = control.New(eng, *fc.Control, n, rc.Warmup, seed)
		if fc.Control.Sheds() {
			// Burn-triggered shedding: each server runs a dedicated sampler
			// whose only rule is the slo.burn budget burn against the control
			// config's objective. Its fire/resolve edges (evaluated at tick
			// boundaries) ship to the dispatcher one wire delay later — the
			// same information lag any front-end signal has. The sampler uses
			// a private empty registry and is never attached to the Result,
			// so shedding works — and results stay cacheable — with or
			// without user telemetry.
			rule := telemetry.Rule{
				Name: control.ShedRuleName, Kind: telemetry.RuleBurnRate,
				SLOMicros: fc.Control.ShedSLOMicros, Budget: 0.01, Threshold: 1,
			}
			for s := range machines {
				srv := s
				eng.SetTag(int32(s + 1))
				shed := telemetry.Start(eng, obs.NewRegistry(), horizon, telemetry.Options{
					Interval:       fc.Control.ShedWindow,
					Capacity:       64,
					Rules:          []telemetry.Rule{rule},
					NoEngineVitals: true,
					OnAlert: func(a telemetry.Alert) {
						if a.Rule != control.ShedRuleName {
							return
						}
						net.Send(srv+1, 0, eng.Now()+lookahead, pdes.Msg{Kind: msgBurn, Flag: a.Firing})
					},
				})
				machines[s].EnableControlTelemetry(shed)
			}
		}
	}

	// Couple the servers. In graph mode a child RPC to a non-local service
	// ships to a server hosting the callee (uniform over its hosts when
	// replicated); otherwise a child RPC that draws the cross-server lottery
	// ships to a uniformly random peer. Either way the message is
	// timestamped when it has crossed the wire and the peer's response
	// retraces the path. Peer choice draws from the source server's own
	// bundle, so it is engine-independent like everything else the server
	// randomizes.
	if fc.Graph != nil || cross > 0 {
		for s := range machines {
			src := s
			peerRng := rngs[src].Rand("fleet-peer")
			var linkSeq uint64
			machines[src].SetRemoteSender(func(svcID int, demand float64, depart sim.Time, traced bool, token int32) uint64 {
				var p int
				if fc.Graph != nil {
					// sendChild only ships non-local callees, so the host
					// list never contains src.
					hosts := fc.Graph.Hosts(svcID)
					p = hosts[0]
					if len(hosts) > 1 {
						p = hosts[peerRng.Intn(len(hosts))]
					}
				} else {
					p = peerRng.Intn(n - 1)
					if p >= src {
						p++
					}
				}
				// Traced sends get a fleet-unique remote-link ID (source
				// server in the high bits, per-server send ordinal below):
				// the caller tags its invoke span with it, the peer tags the
				// served subtree's envelope, and obs.Merge stitches the two
				// into one tree. Minted in the server's deterministic send
				// order, so links are deterministic.
				var link uint64
				if traced {
					linkSeq++
					link = uint64(src+1)<<40 | linkSeq
				}
				// The peer answers through its reply hook: RemoteResponse
				// computes the return-path timing from done alone, so running
				// it one wire delay later on this shard reproduces the
				// reference exactly.
				net.Send(src+1, p+1, depart, pdes.Msg{
					Kind: msgCall, Service: int32(svcID), Demand: demand, Link: link, Token: token,
				})
				return link
			})
		}
	}

	// Fabric self-observability: the PDES coupling exports its own counters
	// through a dedicated metrics registry (um_pdes_* on /metrics) and, when
	// telemetry is on, a sampler on the dispatcher shard streams them as
	// virtual-time series. Instruments update at window barriers from the
	// fabric's deterministic aggregates (throttled to the telemetry
	// interval), so everything exported is deterministic.
	var fabReg *obs.Registry
	var fabTele *telemetry.Sampler
	var updateFabric func()
	var fabTick sim.Time
	if (rc.Obs != nil && rc.Obs.Metrics) || rc.Telemetry != nil {
		fabReg = obs.NewRegistry()
		fabReg.Gauge("pdes.shards").Set(float64(n + 1))
		fabReg.Gauge("pdes.lookahead.us").Set(lookahead.Micros())
		rounds := fabReg.Counter("pdes.rounds")
		sent := fabReg.Counter("pdes.msgs.sent")
		delivered := fabReg.Counter("pdes.msgs.delivered")
		events := fabReg.Counter("pdes.window.events")
		util := fabReg.Gauge("pdes.lookahead.util")
		epw := fabReg.Gauge("pdes.window.events.mean")
		var prev pdes.Stats
		updateFabric = func() {
			st := net.Stats()
			rounds.Add(float64(st.Rounds - prev.Rounds))
			sent.Add(float64(st.MessagesSent - prev.MessagesSent))
			delivered.Add(float64(st.MessagesDelivered - prev.MessagesDelivered))
			events.Add(float64(st.WindowEvents - prev.WindowEvents))
			util.Set(st.LookaheadUtilization())
			epw.Set(st.EventsPerWindow())
			prev = st
		}
		if ctl != nil {
			// Control-loop self-observability rides the same registry and
			// barrier cadence: counters delta-fed from the controller's
			// deterministic client-level accounting.
			retries := fabReg.Counter("control.retries")
			hedges := fabReg.Counter("control.hedges")
			shed := fabReg.Counter("control.shed")
			scaleUps := fabReg.Counter("control.scale_ups")
			active := fabReg.Gauge("control.active_servers")
			var prevCtl control.Stats
			updatePDES := updateFabric
			updateFabric = func() {
				updatePDES()
				cs := ctl.Peek()
				retries.Add(float64(cs.Retries - prevCtl.Retries))
				hedges.Add(float64(cs.Hedges - prevCtl.Hedges))
				shed.Add(float64(cs.Shed - prevCtl.Shed))
				scaleUps.Add(float64(cs.ScaleUps - prevCtl.ScaleUps))
				active.Set(float64(cs.ActiveServers))
				prevCtl = cs
			}
		}
		if rc.Telemetry != nil {
			topt := *rc.Telemetry
			topt.NoEngineVitals = true
			topt.Rules = nil
			eng.SetTag(0)
			fabTele = telemetry.Start(eng, fabReg, horizon, topt)
			fabTick = topt.Interval
			if fabTick <= 0 {
				fabTick = sim.Millisecond
			}
		}
	}

	// Front-end dispatcher (shard 0): one open-loop arrival process at the
	// total rate; each arrival is routed by the balancer and ships to its
	// server one wire delay later. The balancer's view of server queues is
	// exact for what the dispatcher itself routed and barrier-snapshotted
	// for what the servers have answered — i.e. at most one window stale.
	//
	// The arrival process is the last setup, and the engine's tag stays 0
	// from here on: the barrier hook's autoscaler activations are the
	// dispatcher's events.
	eng.SetTag(0)
	bal := fc.balancer()
	lbRng := eng.Rand("fleet-lb")
	routed := make([]int, n)
	responded := make([]uint64, n)
	view := View{
		Servers:     n,
		Outstanding: func(s int) int { return routed[s] - int(responded[s]) },
	}
	if ctl != nil {
		// The controller routes through the same balancer and view, narrowed
		// to the autoscaler's active prefix; each attempt's outcome returns
		// to the dispatcher shard at the response's NIC egress plus one wire
		// delay — the path a real front-end's acks take.
		ctl.Bind(
			func() int {
				v := view
				v.Servers = ctl.ActiveServers()
				return bal.Pick(lbRng, v)
			},
			func(s int, token int32) {
				routed[s]++
				net.Send(0, s+1, eng.Now()+lookahead, pdes.Msg{Kind: msgCtlRoot, Token: token})
			},
		)
	}
	// pickServer routes one root. Plain fleets route over all servers; in
	// graph mode the balancer sees only the servers hosting the root's
	// service (a host list covering the whole fleet degenerates to the
	// plain view — Validate guarantees it is then exactly 0..n-1).
	pickServer := func(root int) int {
		if fc.Graph == nil {
			return bal.Pick(lbRng, view)
		}
		hosts := fc.Graph.Hosts(root)
		if len(hosts) == n {
			return bal.Pick(lbRng, view)
		}
		sub := View{
			Servers:     len(hosts),
			Outstanding: func(i int) int { return view.Outstanding(hosts[i]) },
		}
		return hosts[bal.Pick(lbRng, sub)]
	}
	// Arrivals: trace replay takes root types and demands from the bound
	// trace; the open-loop process admits through the controller or routes
	// itself, typed by the app's root in graph mode.
	typedRoot := func(root int, demand float64) {
		s := pickServer(root)
		routed[s]++
		net.Send(0, s+1, eng.Now()+lookahead, pdes.Msg{Kind: msgTypedRoot, Service: int32(root), Demand: demand})
	}
	machine.Arrivals(eng, rc, totalRPS, func() {
		switch {
		case ctl != nil:
			ctl.AdmitRoot()
		case fc.Graph != nil:
			typedRoot(app.Root, 0)
		default:
			s := bal.Pick(lbRng, view)
			routed[s]++
			net.Send(0, s+1, eng.Now()+lookahead, pdes.Msg{Kind: msgRoot})
		}
	}, typedRoot)

	// Run to horizon; at every window barrier, refresh the dispatcher's
	// snapshot of how many roots each server has answered, and (throttled)
	// the fabric instruments. The post hook runs with no shard executing, so
	// reading the answered counters and fabric state is safe.
	var nextFab sim.Time
	net.Run(horizon, func(barrier sim.Time) {
		copy(responded, answered)
		if ctl != nil {
			// Autoscaling evaluates only here: barrier times are a function
			// of the model alone, and with every shard quiescent the
			// controller may schedule activation events at >= barrier — the
			// pdes post-hook membership-change contract (see pdes.Fabric.Run).
			ctl.AtBarrier(barrier)
		}
		if updateFabric != nil && fabTick > 0 && barrier >= nextFab {
			updateFabric()
			nextFab = barrier + fabTick
		}
	})
	if updateFabric != nil {
		// Final update so the /metrics snapshot and the sampler's closing
		// partial window carry the complete run.
		updateFabric()
	}

	// Per-server results in server order.
	perServer := make([]*machine.Result, n)
	for s, m := range machines {
		perServer[s] = m.Finish()
	}

	out := aggregate(fc, app, totalRPS, rc, perServer)
	out.Balancer = bal.Name()
	if ctl != nil {
		out.Control = ctl.Finish()
	}
	for _, m := range machines {
		out.RemoteServed += m.RemoteServed
	}
	out.EventsProcessed = eng.Fired()
	st := net.Stats()
	out.Fabric = &st
	if fabReg != nil && out.Obs != nil {
		out.Obs.Metrics = obs.CombineSnapshots([]obs.Snapshot{
			out.Obs.Metrics, fabReg.Snapshot(eng.Now()),
		})
	}
	if fabTele != nil && out.Telemetry != nil {
		// Remerge with the fabric run appended so the pdes.* series join the
		// fleet timeline; server alert sources keep their indices (the
		// fabric sampler runs no rules, so it contributes no alerts).
		runs := make([]*telemetry.Run, 0, n+1)
		for _, res := range perServer {
			runs = append(runs, res.Telemetry)
		}
		runs = append(runs, fabTele.Finish(eng.Now()))
		out.Telemetry = telemetry.Merge(runs)
	}
	out.WallSeconds = time.Since(start).Seconds()
	coupledPool.Put(pooled)
	return out
}
