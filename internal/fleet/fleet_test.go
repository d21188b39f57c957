package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"umanycore/internal/control"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/svcgraph"
	"umanycore/internal/sweep"
	"umanycore/internal/telemetry"
	"umanycore/internal/workload"
)

func homeT(t *testing.T) *workload.App {
	t.Helper()
	for _, a := range workload.SocialNetworkApps() {
		if a.Name == "HomeT" {
			return a
		}
	}
	t.Fatal("no HomeT")
	return nil
}

// stripWall zeroes the intentionally non-deterministic Result field, the
// run's wall cost, so determinism tests can DeepEqual whole results.
func stripWall(rs ...*Result) {
	for _, r := range rs {
		r.WallSeconds = 0
	}
}

func TestDefaultConfig(t *testing.T) {
	fc := DefaultConfig(machine.UManycoreConfig())
	if fc.Servers != 10 || fc.InterServerRTT != sim.Microsecond {
		t.Fatalf("fleet defaults = %+v", fc)
	}
}

func TestFleetRunAggregates(t *testing.T) {
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 3
	rc := machine.RunConfig{Duration: 200 * sim.Millisecond, Warmup: 40 * sim.Millisecond, Drain: sim.Second}
	res := Run(fc, homeT(t), 9000, rc, 1)
	if len(res.PerServer) != 3 {
		t.Fatalf("per-server results = %d", len(res.PerServer))
	}
	var sum uint64
	for _, s := range res.PerServer {
		sum += s.Completed
	}
	if res.Completed != sum || res.Completed == 0 {
		t.Fatalf("completed aggregation: %d vs %d", res.Completed, sum)
	}
	if res.Latency.N == 0 || res.Latency.P99 < res.Latency.Mean {
		t.Fatalf("latency = %+v", res.Latency)
	}
	// Servers see different seeds, so samples differ.
	if res.PerServer[0].Latency == res.PerServer[1].Latency {
		t.Fatal("servers appear identical — seeds not varied")
	}
}

func TestFleetCrossServerSlowerThanLocal(t *testing.T) {
	app := homeT(t)
	rc := machine.RunConfig{Duration: 200 * sim.Millisecond, Warmup: 40 * sim.Millisecond, Drain: sim.Second}
	local := DefaultConfig(machine.UManycoreConfig())
	local.Servers = 2
	local.CrossServerFrac = 0
	remote := DefaultConfig(machine.UManycoreConfig())
	remote.Servers = 2
	remote.CrossServerFrac = 1
	remote.InterServerRTT = 200 * sim.Microsecond
	lres := Run(local, app, 4000, rc, 2)
	rres := Run(remote, app, 4000, rc, 2)
	if rres.Latency.Mean <= lres.Latency.Mean {
		t.Fatalf("cross-server RTT not visible: %v vs %v", rres.Latency.Mean, lres.Latency.Mean)
	}
}

func TestFleetPanicsWithoutServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Run(Config{}, homeT(t), 100, machine.RunConfig{}, 1)
}

// TestValidate pins the fail-fast contract: every config Run cannot execute
// is rejected up front with an error that names its cause, and the
// configs it can execute pass.
func TestValidate(t *testing.T) {
	app := homeT(t)
	services := len(app.Catalog.Services)
	replay := &svcgraph.Replay{Arrivals: []svcgraph.Arrival{{Root: app.Root}}, Records: 1}
	fleet := func(servers int, edit func(*Config)) Config {
		fc := DefaultConfig(machine.UManycoreConfig())
		fc.Servers = servers
		if edit != nil {
			edit(&fc)
		}
		return fc
	}
	cases := []struct {
		name   string
		fc     Config
		replay bool
		want   string // "" = valid
	}{
		{"no servers", fleet(0, nil), false, "at least one server"},
		{"unknown lb", fleet(2, func(fc *Config) { fc.LB = "bogus" }), false, "unknown load-balancer policy"},
		{"one-server graph", fleet(1, func(fc *Config) { fc.Graph = svcgraph.Colocated(services, 1) }), false, "Config.Graph needs a coupled fleet"},
		{"bad placement", fleet(2, func(fc *Config) { fc.Graph = &svcgraph.Spec{Placement: [][]int{{0}}} }), false, "placement covers"},
		{"graph with control", fleet(2, func(fc *Config) {
			fc.Graph = svcgraph.Colocated(services, 2)
			fc.Control = fullControl()
		}), false, "Config.Graph does not support the control loop"},
		{"replay with control", fleet(2, func(fc *Config) { fc.Control = fullControl() }), true, "trace replay does not support the control loop"},
		{"one-server control", fleet(1, func(fc *Config) { fc.Control = fullControl() }), false, "Config.Control needs a coupled fleet"},
		{"zero lookahead", fleet(2, func(fc *Config) { fc.InterServerRTT = 1 }), false, "InterServerRTT >= 2ps"},
		{"default", fleet(10, nil), false, ""},
		{"one server ignores rtt", fleet(1, func(fc *Config) { fc.InterServerRTT = 0 }), false, ""},
		{"graph replay", fleet(2, func(fc *Config) { fc.Graph = svcgraph.Colocated(services, 2) }), true, ""},
		// Per-server machine configs and the control config: each of these
		// used to validate and then panic in setup.
		{"bad nic buffer", fleet(2, func(fc *Config) { fc.Machine.NICBufCapacity = -1 }), false, "server 0: machine: NIC buffer capacity -1"},
		{"bad retry jitter", fleet(2, func(fc *Config) { fc.Control = &control.Config{MaxRetries: 2, RetryJitter: 1.5} }), false, "RetryJitter 1.5 outside [0,1]"},
		{"shedding without slo", fleet(2, func(fc *Config) { fc.Control = &control.Config{ShedProb: 0.5} }), false, "shedding needs ShedSLOMicros"},
		{"bad per-server speedup", fleet(2, func(fc *Config) {
			fc.WhatIfPerServer = make([]machine.StageSpeedups, 2)
			fc.WhatIfPerServer[1].Net = 2
		}), false, "server 1: machine: what-if"},
		// Each server's hosting check: pinned placement with fewer domains
		// than hosted services used to panic partway through the run.
		{"too few domains", fleet(2, func(fc *Config) { fc.Machine.Domains = 4 }), false, "server 0: machine: pinned placement of"},
		{"graph with too few domains", fleet(2, func(fc *Config) {
			fc.Graph = svcgraph.Colocated(services, 2)
			fc.Machine.Domains = 4
		}), false, "but Domains is 4"},
	}
	for _, c := range cases {
		rc := machine.RunConfig{Duration: sim.Millisecond}
		if c.replay {
			rc.Replay = replay
		}
		err := c.fc.Validate(app, rc)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted, want error naming %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
		if err != nil {
			// Run must stop on the same diagnosis, before any setup panic.
			if got := runPanic(c.fc, app, rc); got != err.Error() {
				t.Errorf("%s: Run panicked with %q, want Validate's %q", c.name, got, err)
			}
		}
	}
}

// runPanic runs fc and returns what Run panicked with ("" if it did not).
func runPanic(fc Config, app *workload.App, rc machine.RunConfig) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	Run(fc, app, 1000, rc, 1)
	return ""
}

// TestOneServerFleetMatchesMachineRun pins the one-server route and the
// CrossServerFrac clamp: a 1-server fleet — even with the DefaultConfig's
// CrossServerFrac of 0.5 — must reproduce a plain machine.Run of its
// server config bit-for-bit, observability layers included, for every
// arrival source and per-server config knob.
func TestOneServerFleetMatchesMachineRun(t *testing.T) {
	app := homeT(t)
	_, _, replay := graphReplayInputs(t)
	cases := []struct {
		name string
		fc   func(*Config)
		rc   func(*machine.RunConfig)
	}{
		{"plain", nil, nil},
		{"mix", nil, func(rc *machine.RunConfig) { rc.Mix = workload.SocialNetworkMix() }},
		{"replay", nil, func(rc *machine.RunConfig) { rc.Replay = replay }},
		{"bursty", nil, func(rc *machine.RunConfig) { rc.Arrivals = machine.BurstyArrivals }},
		{"slowdown+whatif", func(fc *Config) {
			fc.Slowdown = []float64{1.5}
			fc.Machine.WhatIf = machine.StageSpeedups{RPC: 0.5, Storage: 0.25}
		}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rc := machine.RunConfig{
				Duration:  100 * sim.Millisecond,
				Warmup:    20 * sim.Millisecond,
				Drain:     sim.Second,
				Obs:       &obs.Options{Trace: true, Metrics: true},
				Telemetry: &telemetry.Options{},
			}
			if c.rc != nil {
				c.rc(&rc)
			}
			fc := DefaultConfig(machine.UManycoreConfig())
			fc.Servers = 1
			if c.fc != nil {
				c.fc(&fc)
			}

			fres := Run(fc, app, 12000, rc, 7)
			if fres.RemoteServed != 0 {
				t.Fatalf("1-server fleet shipped %d remote RPCs; CrossServerFrac not clamped", fres.RemoteServed)
			}
			if fres.Completed == 0 {
				t.Fatal("1-server fleet completed nothing")
			}

			mrc := rc
			mrc.App = app
			mrc.RPS = 12000
			mrc.Seed = 7
			mres := machine.Run(fc.serverConfig(0, 0), mrc)
			// Normalize the timelines' lazily-built name caches (fleet
			// merging already materialized one side's); the series data is
			// what matters.
			fres.PerServer[0].Telemetry.Timeline.Names()
			mres.Telemetry.Timeline.Names()
			if !reflect.DeepEqual(fres.PerServer[0], mres) {
				t.Fatalf("1-server fleet != machine.Run:\nfleet:   %+v\nmachine: %+v", fres.PerServer[0], mres)
			}
			if fres.Latency != mres.Latency || fres.TailToAvg != mres.TailToAvg {
				t.Fatalf("aggregate latency drifted: %+v vs %+v", fres.Latency, mres.Latency)
			}
			if fres.EventsProcessed != mres.Events || fres.Balancer != "rr" {
				t.Fatalf("fleet events %d (machine %d), balancer %q", fres.EventsProcessed, mres.Events, fres.Balancer)
			}
		})
	}
}

// TestCoupledFleetDeterministic pins the coupled runner's determinism
// contract: repeat runs are bit-identical, and running replicates inside a
// sweep gives the same results for 1 worker and many.
func TestCoupledFleetDeterministic(t *testing.T) {
	app := homeT(t)
	rc := machine.RunConfig{
		Duration:  60 * sim.Millisecond,
		Warmup:    10 * sim.Millisecond,
		Drain:     500 * sim.Millisecond,
		Obs:       &obs.Options{Trace: true, Metrics: true},
		Telemetry: &telemetry.Options{},
	}
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 3
	fc.LB = "p2c"

	a := Run(fc, app, 20000, rc, 11)
	b := Run(fc, app, 20000, rc, 11)
	stripWall(a, b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeat coupled runs differ")
	}

	reps := []int64{11, 12, 13, 14}
	runReps := func(workers int) []*Result {
		rs := sweep.Map(workers, reps, func(_ int, seed int64) *Result {
			return Run(fc, app, 20000, rc, seed)
		})
		stripWall(rs...)
		return rs
	}
	if !reflect.DeepEqual(runReps(1), runReps(4)) {
		t.Fatal("coupled fleet results depend on sweep worker count")
	}
}

// TestShardWorkerInvariance pins the PDES half of the determinism contract:
// a repeat run of the coupled fleet reproduces the first exactly,
// observability and telemetry layers included.
func TestShardWorkerInvariance(t *testing.T) {
	app := homeT(t)
	rc := machine.RunConfig{
		Duration:  40 * sim.Millisecond,
		Warmup:    8 * sim.Millisecond,
		Drain:     500 * sim.Millisecond,
		Obs:       &obs.Options{Trace: true, Metrics: true},
		Telemetry: &telemetry.Options{},
	}
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 8
	fc.LB = "least"

	run := func() *Result {
		r := Run(fc, app, 48000, rc, 21)
		stripWall(r)
		return r
	}
	want := run()
	if want.RemoteServed == 0 {
		t.Fatal("no cross-server traffic; determinism test is vacuous")
	}
	if got := run(); !reflect.DeepEqual(want, got) {
		t.Fatal("repeat run diverged")
	}
}

// TestCoupledCrossServerRPCs checks the real coupling: with a cross-server
// fraction, peer servers actually serve shipped child RPCs, and the wire
// time is visible in the latency.
func TestCoupledCrossServerRPCs(t *testing.T) {
	app := homeT(t)
	rc := machine.RunConfig{Duration: 100 * sim.Millisecond, Warmup: 20 * sim.Millisecond, Drain: sim.Second}
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 2
	fc.CrossServerFrac = 1
	fc.InterServerRTT = 100 * sim.Microsecond

	res := Run(fc, app, 8000, rc, 5)
	if res.RemoteServed == 0 {
		t.Fatal("no cross-server RPCs served despite CrossServerFrac=1")
	}

	local := fc
	local.CrossServerFrac = 0
	lres := Run(local, app, 8000, rc, 5)
	if lres.RemoteServed != 0 {
		t.Fatalf("local fleet served %d remote RPCs", lres.RemoteServed)
	}
	if res.Latency.Mean <= lres.Latency.Mean {
		t.Fatalf("coupled cross-server RTT not visible: %v vs %v", res.Latency.Mean, lres.Latency.Mean)
	}
}

// TestFleetStitchedTracing checks the distributed-tracing contract end to
// end on a real coupled fleet: every peer-served envelope is stitched under
// its caller's invoke span, cross-server trees reconcile to the picosecond,
// blame splits by (server, stage), and the fabric's self-observability is
// present and consistent with the exported counters.
func TestFleetStitchedTracing(t *testing.T) {
	app := homeT(t)
	rc := machine.RunConfig{
		Duration: 40 * sim.Millisecond,
		Warmup:   8 * sim.Millisecond,
		Drain:    500 * sim.Millisecond,
		Obs:      &obs.Options{Trace: true, Metrics: true},
	}
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 3
	fc.LB = "p2c"
	fc.CrossServerFrac = 1
	fc.InterServerRTT = 100 * sim.Microsecond

	res := Run(fc, app, 18000, rc, 13)
	if res.RemoteServed == 0 {
		t.Fatal("no cross-server RPCs; stitching test is vacuous")
	}
	spans := res.Obs.Spans
	if len(spans) == 0 {
		t.Fatal("traced fleet run recorded no spans")
	}

	stitched := 0
	for i, s := range spans {
		if s.ID != uint64(i)+1 {
			t.Fatalf("span %d has ID %d, want dense IDs", i, s.ID)
		}
		if s.Link != 0 && s.Parent == 0 {
			t.Fatalf("span %d: link-tagged envelope left parentless (link %d, server %d)", s.ID, s.Link, s.Server)
		}
		if s.Parent == 0 {
			continue
		}
		p := &spans[s.Parent-1]
		if s.Req != p.Req {
			t.Fatalf("span %d req %d != parent req %d", s.ID, s.Req, p.Req)
		}
		if s.Server != p.Server {
			// A server boundary inside one tree: must be a stitched remote
			// envelope, contained in the caller's invoke span.
			if s.Stage != obs.StageInvoke || s.Link == 0 || s.Link != p.Link {
				t.Fatalf("span %d crosses servers without a matching link: %+v -> %+v", s.ID, s, p)
			}
			if s.Start < p.Start || (s.End > s.Start && p.End > p.Start && s.End > p.End) {
				t.Fatalf("remote envelope %d [%v,%v] escapes caller invoke [%v,%v]",
					s.ID, s.Start, s.End, p.Start, p.End)
			}
			stitched++
		}
	}
	if stitched == 0 {
		t.Fatal("no stitched cross-server envelopes in the merged trace")
	}

	rep := obs.Analyze(spans, 0.05)
	if rep.Total == 0 {
		t.Fatal("no clean requests to analyze")
	}
	if rep.Residual() != 0 {
		t.Fatalf("cross-server residual = %v, want 0", rep.Residual())
	}
	if len(rep.ByServerStage) != fc.Servers {
		t.Fatalf("ByServerStage has %d servers, want %d", len(rep.ByServerStage), fc.Servers)
	}
	active := 0
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		var sum sim.Time
		for srv := range rep.ByServerStage {
			sum += rep.ByServerStage[srv][st]
		}
		if sum != rep.ByStage[st] {
			t.Fatalf("stage %v: per-server sum %v != ByStage %v", st, sum, rep.ByStage[st])
		}
	}
	for srv := range rep.ByServerStage {
		for _, d := range rep.ByServerStage[srv] {
			if d != 0 {
				active++
				break
			}
		}
	}
	if active < 2 {
		t.Fatalf("critical path touched %d servers, want >= 2 with CrossServerFrac=1", active)
	}

	// Fabric self-observability: Result.Fabric and the pdes.* metrics agree.
	st := res.Fabric
	if st == nil {
		t.Fatal("coupled run carried no fabric stats")
	}
	if st.Rounds == 0 || st.MessagesSent == 0 || st.MessagesSent != st.MessagesDelivered {
		t.Fatalf("fabric stats inconsistent: %+v", st)
	}
	if st.Shards != fc.Servers+1 || len(st.ShardWindows) != st.Shards || len(st.ShardEvents) != st.Shards {
		t.Fatalf("fabric shard accounting: %+v", st)
	}
	var shardEvents uint64
	for _, e := range st.ShardEvents {
		shardEvents += e
	}
	if shardEvents != st.WindowEvents {
		t.Fatalf("per-shard events sum %d != window events %d", shardEvents, st.WindowEvents)
	}
	if u := st.LookaheadUtilization(); u <= 0 || u > 1 {
		t.Fatalf("lookahead utilization = %v", u)
	}
	for name, want := range map[string]float64{
		"pdes.rounds":         float64(st.Rounds),
		"pdes.msgs.sent":      float64(st.MessagesSent),
		"pdes.msgs.delivered": float64(st.MessagesDelivered),
		"pdes.window.events":  float64(st.WindowEvents),
		"pdes.shards":         float64(st.Shards),
		"pdes.lookahead.util": st.LookaheadUtilization(),
	} {
		got, ok := res.Obs.Metrics.Get(name)
		if !ok {
			t.Fatalf("metric %q missing from merged snapshot", name)
		}
		if got != want {
			t.Fatalf("metric %q = %v, want %v (Result.Fabric)", name, got, want)
		}
	}
}

// TestStitchedObsShardWorkerDeterminism pins the acceptance bar for the
// tracing layer: the merged observability payload, the tail exemplars and
// the fabric's statistics are bit-identical on a repeat run.
func TestStitchedObsShardWorkerDeterminism(t *testing.T) {
	app := homeT(t)
	rc := machine.RunConfig{
		Duration: 40 * sim.Millisecond,
		Warmup:   8 * sim.Millisecond,
		Drain:    500 * sim.Millisecond,
		Obs:      &obs.Options{Trace: true, Metrics: true},
	}
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 3
	fc.LB = "p2c"
	fc.CrossServerFrac = 1
	fc.InterServerRTT = 100 * sim.Microsecond

	run := func() *Result { return Run(fc, app, 18000, rc, 13) }
	exemplarJSON := func(r *Result) []byte {
		var buf bytes.Buffer
		if err := obs.WriteExemplarsJSON(&buf, obs.Exemplars(r.Obs.Spans, 5)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	ref := run()
	if ref.RemoteServed == 0 {
		t.Fatal("no cross-server traffic; determinism test is vacuous")
	}
	got := run()
	if !reflect.DeepEqual(ref.Obs, got.Obs) {
		t.Fatal("observability payload diverged on a repeat run")
	}
	if !bytes.Equal(exemplarJSON(ref), exemplarJSON(got)) {
		t.Fatal("exemplar JSON diverged on a repeat run")
	}
	if !reflect.DeepEqual(ref.Fabric, got.Fabric) {
		t.Fatalf("fabric statistics diverged on a repeat run:\nref %+v\ngot %+v", ref.Fabric, got.Fabric)
	}
}

// TestSkewedFleetP2CBeatsRandom is the headline property of real
// load-balancing policies on a heterogeneous fleet: with one straggler
// server, power-of-two-choices keeps the tail below uniform-random routing,
// which keeps sending the straggler its full share.
func TestSkewedFleetP2CBeatsRandom(t *testing.T) {
	app := homeT(t)
	rc := machine.RunConfig{Duration: 150 * sim.Millisecond, Warmup: 30 * sim.Millisecond, Drain: sim.Second}
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 4
	fc.CrossServerFrac = 0
	fc.Slowdown = []float64{1, 1, 1, 4}

	fc.LB = "p2c"
	p2c := Run(fc, app, 40000, rc, 9)
	fc.LB = "rand"
	rnd := Run(fc, app, 40000, rc, 9)
	if p2c.Balancer != "p2c" || rnd.Balancer != "rand" {
		t.Fatalf("balancer labels: %q %q", p2c.Balancer, rnd.Balancer)
	}
	if p2c.Latency.P99 > rnd.Latency.P99 {
		t.Fatalf("p2c P99 %.1fus worse than uniform-random %.1fus on skewed fleet",
			p2c.Latency.P99, rnd.Latency.P99)
	}
}

// TestBalancerPolicies unit-tests each policy's routing decision. A nil rng
// in the N==1 cases doubles as proof that no policy consumes randomness on
// a one-server fleet.
func TestBalancerPolicies(t *testing.T) {
	depths := []int{3, 0, 2, 1}
	v := View{Servers: 4, Outstanding: func(s int) int { return depths[s] }}
	one := View{Servers: 1, Outstanding: func(int) int { return 99 }}

	rr := &RoundRobin{}
	for i := 0; i < 8; i++ {
		if got := rr.Pick(nil, v); got != i%4 {
			t.Fatalf("round-robin pick %d = %d", i, got)
		}
	}
	if (&RoundRobin{}).Pick(nil, one) != 0 {
		t.Fatal("rr N=1")
	}

	eng := sim.NewEngine(1)
	rng := eng.Rand("test")
	seen := make(map[int]bool)
	for i := 0; i < 256; i++ {
		s := UniformRandom{}.Pick(rng, v)
		if s < 0 || s >= 4 {
			t.Fatalf("rand pick out of range: %d", s)
		}
		seen[s] = true
	}
	if len(seen) != 4 {
		t.Fatalf("uniform-random never hit all servers: %v", seen)
	}
	if (UniformRandom{}).Pick(nil, one) != 0 {
		t.Fatal("rand N=1")
	}

	if got := (LeastOutstanding{}).Pick(nil, v); got != 1 {
		t.Fatalf("least-outstanding = %d, want 1", got)
	}
	tie := View{Servers: 3, Outstanding: func(int) int { return 2 }}
	if got := (LeastOutstanding{}).Pick(nil, tie); got != 0 {
		t.Fatalf("least-outstanding tie-break = %d, want 0", got)
	}
	if (LeastOutstanding{}).Pick(nil, one) != 0 {
		t.Fatal("least N=1")
	}

	for i := 0; i < 256; i++ {
		s := PowerOfTwo{}.Pick(rng, v)
		if s < 0 || s >= 4 {
			t.Fatalf("p2c pick out of range: %d", s)
		}
		// Server 0 is strictly the deepest; whichever peer the second probe
		// lands on wins, so p2c can never route there.
		if s == 0 {
			t.Fatalf("p2c picked the deepest server")
		}
	}
	if (PowerOfTwo{}).Pick(nil, one) != 0 {
		t.Fatal("p2c N=1")
	}
}

func TestParseLB(t *testing.T) {
	for _, name := range Policies() {
		mk, err := ParseLB(name)
		if err != nil {
			t.Fatalf("ParseLB(%q): %v", name, err)
		}
		if got := mk().Name(); got != name {
			t.Fatalf("ParseLB(%q).Name() = %q", name, got)
		}
	}
	if mk, err := ParseLB(""); err != nil || mk().Name() != "rr" {
		t.Fatalf("default policy: %v", err)
	}
	if _, err := ParseLB("bogus"); err == nil {
		t.Fatal("no error for unknown policy")
	}
}

// FuzzParseLB: no input may panic, every Policies() name (and the aliases)
// must parse to a working factory, and parse success must be consistent with
// itself across calls.
func FuzzParseLB(f *testing.F) {
	for _, name := range Policies() {
		f.Add(name)
	}
	for _, name := range []string{"", "roundrobin", "random", "uniform", "lor", "jsq", "pow2", "two", "RR", "p2c ", "p2c\x00", "nonsense", "least\n"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		mk, err := ParseLB(name)
		_, err2 := ParseLB(name)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("ParseLB(%q) flapped: %v vs %v", name, err, err2)
		}
		if err != nil {
			if mk != nil {
				t.Fatalf("ParseLB(%q) returned factory with error", name)
			}
			return
		}
		// A parsed factory must yield fresh, usable balancers.
		b1, b2 := mk(), mk()
		if b1 == nil || b2 == nil {
			t.Fatalf("ParseLB(%q) factory returned nil balancer", name)
		}
	})
}

func TestParseLBKnownPolicies(t *testing.T) {
	for _, name := range Policies() {
		if _, err := ParseLB(name); err != nil {
			t.Errorf("ParseLB(%q): %v", name, err)
		}
	}
	if _, err := ParseLB("definitely-not-a-policy"); err == nil {
		t.Error("unknown policy parsed")
	}
}
