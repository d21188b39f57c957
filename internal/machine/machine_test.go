package machine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"umanycore/internal/sched"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

func appByName(t testing.TB, name string) *workload.App {
	t.Helper()
	for _, a := range workload.SocialNetworkApps() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no app %q", name)
	return nil
}

func quickRun(t testing.TB, cfg Config, app *workload.App, rps float64) *Result {
	t.Helper()
	return Run(cfg, RunConfig{
		App:      app,
		RPS:      rps,
		Duration: 300 * sim.Millisecond,
		Warmup:   60 * sim.Millisecond,
		Drain:    sim.Second,
		Seed:     11,
	})
}

func TestConfigValidate(t *testing.T) {
	good := UManycoreConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Domains = 0 },
		func(c *Config) { c.Cores = 100; c.Domains = 33 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.PerfFactor = 0 },
		func(c *Config) { c.Topo = MeshTopo; c.MeshW = 0 },
		func(c *Config) { c.Topo = FatTreeTopo; c.FatTreeLeaves = 0 },
		func(c *Config) { c.Topo = LeafSpineTopo; c.LeafSpineCfg.Pods = 0 },
		func(c *Config) { c.RQCapacity = 0 },
		func(c *Config) { c.NICBufCapacity = -1 },
		func(c *Config) { c.NICBufCapacity = math.MaxInt32 + 1 },
		func(c *Config) { c.RQCapacity = math.MaxInt32 + 1 },
		func(c *Config) { c.Extensions.PartitionRQ = true },
		func(c *Config) { c.Topo = MeshTopo; c.MeshW, c.MeshH = -4, -8 },
		func(c *Config) { c.Topo = FatTreeTopo; c.FatTreeLeaves = 12 },
		func(c *Config) { c.Topo = LeafSpineTopo; c.LeafSpineCfg.L3Count = 0 },
		func(c *Config) { c.Topo = 7 },
		func(c *Config) { c.Placement = 2 },
		func(c *Config) { c.NICHWDelay = -1 },
		func(c *Config) { c.RPCProcCycles = -1 },
		func(c *Config) { c.Policy.CSCycles = -1 },
		func(c *Config) { c.StorageLossProb = 1 },
		func(c *Config) { c.StorageLossProb = math.NaN() },
		func(c *Config) { c.FreqGHz = math.NaN() },
		func(c *Config) { c.Extensions.BigVillageFrac = 0.5; c.Extensions.BigCorePerf = math.NaN() },
	}
	for i, mutate := range cases {
		c := UManycoreConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestCyclesToTime(t *testing.T) {
	c := UManycoreConfig() // 2GHz: 1 cycle = 500ps
	if got := c.CyclesToTime(2000); got != sim.Microsecond {
		t.Fatalf("2000 cycles @2GHz = %v", got)
	}
	s := ServerClassConfig(40) // 3GHz
	if got := s.CyclesToTime(3000); got != sim.Microsecond {
		t.Fatalf("3000 cycles @3GHz = %v", got)
	}
}

func TestMeshDims(t *testing.T) {
	for _, c := range []struct{ n, w, h int }{
		{40, 8, 5}, {128, 16, 8}, {36, 6, 6}, {7, 7, 1},
	} {
		w, h := meshDims(c.n)
		if w*h != c.n || w != c.w || h != c.h {
			t.Errorf("meshDims(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

func TestPresetShapes(t *testing.T) {
	u := UManycoreConfig()
	if u.Cores != 1024 || u.Domains != 128 || !u.Policy.HardwareRQ || u.GlobalCoherence {
		t.Fatalf("uManycore preset = %+v", u)
	}
	if u.Policy.CSCycles != sched.HardwareCSCycles {
		t.Fatal("uManycore CS not hardware")
	}
	so := ScaleOutConfig()
	if so.Cores != 1024 || so.Domains != 32 || so.Policy.HardwareRQ || !so.GlobalCoherence {
		t.Fatalf("ScaleOut preset = %+v", so)
	}
	if so.Topo != FatTreeTopo || so.CentralDispatcher {
		t.Fatal("ScaleOut should use per-cluster dispatchers on a fat-tree")
	}
	sc := ServerClassConfig(40)
	if sc.Cores != 40 || sc.Domains != 1 || !sc.CentralDispatcher || sc.Topo != MeshTopo {
		t.Fatalf("ServerClass preset = %+v", sc)
	}
	if sc.PerfFactor <= 1 || sc.FreqGHz != 3 {
		t.Fatal("ServerClass core spec")
	}
}

func TestTopologySensitivityConfigs(t *testing.T) {
	for _, c := range []struct{ cpv, vpc, cl int }{
		{8, 4, 32}, {32, 1, 32}, {32, 2, 16}, {32, 4, 8},
	} {
		cfg := UManycoreTopologyConfig(c.cpv, c.vpc, c.cl)
		if cfg.Cores != 1024 {
			t.Errorf("%dx%dx%d cores = %d", c.cpv, c.vpc, c.cl, cfg.Cores)
		}
		if cfg.Domains != c.vpc*c.cl {
			t.Errorf("%dx%dx%d domains = %d", c.cpv, c.vpc, c.cl, cfg.Domains)
		}
		if cfg.LeafSpineCfg.Pods*cfg.LeafSpineCfg.LeavesPerPod != c.cl {
			t.Errorf("%dx%dx%d leaves = %d, want %d", c.cpv, c.vpc, c.cl,
				cfg.LeafSpineCfg.Pods*cfg.LeafSpineCfg.LeavesPerPod, c.cl)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%dx%dx%d invalid: %v", c.cpv, c.vpc, c.cl, err)
		}
	}
}

func TestTechniqueLadderConfigs(t *testing.T) {
	s0 := ScaleOutConfig()
	s1 := WithVillages(s0)
	if s1.Domains != 128 || s1.GlobalCoherence || s1.Placement != PinnedPlacement {
		t.Fatalf("villages step = %+v", s1)
	}
	s2 := WithLeafSpine(s1)
	if s2.Topo != LeafSpineTopo {
		t.Fatal("leaf-spine step")
	}
	s3 := WithHWScheduling(s2)
	if !s3.Policy.HardwareRQ || s3.RPCProcCycles != 0 {
		t.Fatal("hw sched step")
	}
	if s3.Policy.CSCycles != sched.SoftwareCSCycles {
		t.Fatal("hw sched step should keep software CS cost")
	}
	s4 := WithHWContextSwitch(s3)
	if s4.Policy.CSCycles != sched.HardwareCSCycles {
		t.Fatal("hw cs step")
	}
	for _, c := range []Config{s1, s2, s3, s4} {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", c.Name, err)
		}
	}
}

func TestPinnedPlacementCoversDomainsAndServices(t *testing.T) {
	eng := sim.NewEngine(1)
	m := New(eng, UManycoreConfig(), appByName(t, "CPost"))
	total := 0
	for svc := 0; svc < workload.NumSocialServices; svc++ {
		n := len(m.instances[svc])
		if n == 0 {
			t.Fatalf("service %d has no instances", svc)
		}
		total += n
	}
	if total != 128 {
		t.Fatalf("allocated domains = %d, want 128", total)
	}
	// Hot services (User appears 5× in the CPost tree) get more villages
	// than cold ones (Text appears once).
	if len(m.instances[workload.SvcUser]) <= len(m.instances[workload.SvcText]) {
		t.Fatalf("User (%d villages) should out-provision Text (%d)",
			len(m.instances[workload.SvcUser]), len(m.instances[workload.SvcText]))
	}
}

// TestDispatchRoundRobin pins the top-level NIC's dispatch (§4.2): each
// service cycles through its hosting domains in ascending domain order with
// its own cursor, wrapping after the last, and a service the server does
// not host panics naming it.
func TestDispatchRoundRobin(t *testing.T) {
	app := appByName(t, "CPost")
	m := New(sim.NewEngine(1), UManycoreConfig(), app)
	user, text := m.instances[workload.SvcUser], m.instances[workload.SvcText]
	if len(user) < 2 || len(text) < 1 {
		t.Fatalf("User hosted in %d domains, Text in %d", len(user), len(text))
	}
	for i := 1; i < len(user); i++ {
		if user[i].id <= user[i-1].id {
			t.Fatalf("User's domains out of order: %d then %d", user[i-1].id, user[i].id)
		}
	}
	for i := range 2*len(user) + 1 {
		if got, want := m.pickInstance(workload.SvcUser), user[i%len(user)]; got != want {
			t.Fatalf("pick %d of User: domain %d, want %d", i, got.id, want.id)
		}
		// Another service's dispatch never moves User's cursor.
		if got, want := m.pickInstance(workload.SvcText), text[i%len(text)]; got != want {
			t.Fatalf("pick %d of Text: domain %d, want %d", i, got.id, want.id)
		}
	}

	placed := NewPlaced(sim.NewEngine(1), UManycoreConfig(), app.Catalog, []int{workload.SvcText})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "no instances for service") {
			t.Fatalf("dispatch to an unhosted service: recovered %q, want a no-instances panic", msg)
		}
	}()
	placed.pickInstance(workload.SvcUser)
}

// TestCheckHosting pins the hosting check: pinned placement needs a domain
// for each hosted service (for each group of ColocatedServices on a mix
// machine), and a server CheckHosting rejects panics with the same error
// at construction, before any event, instead of at its first request for
// an unplaced service.
func TestCheckHosting(t *testing.T) {
	app := appByName(t, "CPost") // 8 services in its tree
	mix := RunConfig{App: app, Mix: workload.SocialNetworkMix()}
	three := []int{workload.SvcUser, workload.SvcText, workload.SvcUrlShort}
	for _, tc := range []struct {
		name   string
		cfg    func(*Config)
		rc     RunConfig
		hosted []int
		want   string // "" = hosts
	}{
		{"a domain each", func(c *Config) { c.Domains = 8 }, RunConfig{App: app}, nil, ""},
		{"one domain short", func(c *Config) { c.Domains = 4 }, RunConfig{App: app}, nil,
			"pinned placement of 8 services, 1 per domain, needs 8 domains, but Domains is 4"},
		{"mix", func(c *Config) { c.Domains = 2 }, mix, nil,
			"pinned placement of 8 services, 1 per domain, needs 8 domains, but Domains is 2"},
		{"random placement", func(c *Config) { c.Domains, c.Placement = 1, RandomPlacement }, mix, nil, ""},
		{"co-located", func(c *Config) { c.Domains, c.Extensions.ColocatedServices = 4, 2 }, RunConfig{App: app}, nil, ""},
		{"co-located short", func(c *Config) { c.Domains, c.Extensions.ColocatedServices = 2, 3 }, RunConfig{App: app}, nil,
			"pinned placement of 8 services, 3 per domain, needs 3 domains, but Domains is 2"},
		{"placed", func(c *Config) { c.Domains = 4 }, RunConfig{App: app}, three, ""},
		{"placed short", func(c *Config) { c.Domains = 2 }, RunConfig{App: app}, three,
			"pinned placement of 3 services, 1 per domain, needs 3 domains, but Domains is 2"},
		// A placed server shares its domains out without co-location.
		{"placed ignores co-location", func(c *Config) { c.Domains, c.Extensions.ColocatedServices = 2, 2 }, RunConfig{App: app}, three,
			"pinned placement of 3 services, 1 per domain, needs 3 domains, but Domains is 2"},
	} {
		cfg := UManycoreConfig()
		cfg.Cores = 64
		tc.cfg(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err := CheckHosting(cfg, tc.rc, tc.hosted)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if (tc.want == "") != (got == "") || !strings.Contains(got, tc.want) {
			t.Errorf("%s: CheckHosting = %q, want %q", tc.name, got, tc.want)
		}
		panicked := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			NewServer(sim.NewEngine(1), cfg, tc.rc.Normalized(), tc.hosted, OwnEngine)
			return ""
		}()
		if panicked != got {
			t.Errorf("%s: NewServer panicked with %q, want CheckHosting's %q", tc.name, panicked, got)
		}
	}
}

func TestLeafAppSingleService(t *testing.T) {
	eng := sim.NewEngine(1)
	m := New(eng, UManycoreConfig(), appByName(t, "UrlShort"))
	if len(m.instances[workload.SvcUrlShort]) != 128 {
		t.Fatalf("leaf app should own every village, got %d", len(m.instances[workload.SvcUrlShort]))
	}
}

func TestRunCompletesAllRequests(t *testing.T) {
	res := quickRun(t, UManycoreConfig(), appByName(t, "CPost"), 2000)
	if res.Submitted == 0 || res.Completed != res.Submitted {
		t.Fatalf("submitted=%d completed=%d", res.Submitted, res.Completed)
	}
	if res.Rejected != 0 || res.Unfinished != 0 {
		t.Fatalf("rejected=%d unfinished=%d", res.Rejected, res.Unfinished)
	}
	if res.Latency.N == 0 || res.Latency.Mean <= 0 {
		t.Fatalf("latency = %+v", res.Latency)
	}
	// A CPost tree has 28 invocations.
	if res.Invocations != 28*res.Completed {
		t.Fatalf("invocations = %d for %d roots", res.Invocations, res.Completed)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := quickRun(t, UManycoreConfig(), appByName(t, "HomeT"), 3000)
	b := quickRun(t, UManycoreConfig(), appByName(t, "HomeT"), 3000)
	if a.Latency != b.Latency || a.Events != b.Events {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Latency, b.Latency)
	}
}

func TestLatencyAboveCriticalPath(t *testing.T) {
	app := appByName(t, "CPost")
	cp := app.Stats().CriticalPathMicros
	res := quickRun(t, UManycoreConfig(), app, 1000)
	if res.Latency.Mean < cp*0.8 {
		t.Fatalf("mean latency %v below critical path %v", res.Latency.Mean, cp)
	}
}

// The headline end-to-end behaviour (Figs 14/16): μManycore's latency stays
// flat from 5K to 15K RPS while ServerClass collapses; at 15K the tail gap
// is large and ScaleOut sits in between.
func TestPaperShapeTailLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("long calibration test")
	}
	app := appByName(t, "CPost")
	run := func(cfg Config, rps float64) *Result {
		return Run(cfg, RunConfig{App: app, Mix: workload.SocialNetworkMix(),
			RPS: rps, Duration: 500 * sim.Millisecond,
			Warmup: 100 * sim.Millisecond, Drain: 1500 * sim.Millisecond, Seed: 5})
	}
	u5, u15 := run(UManycoreConfig(), 5000), run(UManycoreConfig(), 15000)
	so15 := run(ScaleOutConfig(), 15000)
	sc5, sc15 := run(ServerClassConfig(40), 5000), run(ServerClassConfig(40), 15000)

	// μManycore: flat across load.
	if u15.Latency.P99 > 2*u5.Latency.P99 {
		t.Errorf("uManycore tail grew %v -> %v", u5.Latency.P99, u15.Latency.P99)
	}
	// ServerClass: collapses by 15K (paper: 25.7ms at 15K vs 4.0ms at 5K).
	if sc15.Latency.P99 < 4*sc5.Latency.P99 {
		t.Errorf("ServerClass tail should blow up: %v -> %v", sc5.Latency.P99, sc15.Latency.P99)
	}
	// Ordering at 15K: uManycore < ScaleOut < ServerClass.
	if !(u15.Latency.P99 < so15.Latency.P99 && so15.Latency.P99 < sc15.Latency.P99) {
		t.Errorf("tail ordering violated: uMC=%v ScaleOut=%v SC=%v",
			u15.Latency.P99, so15.Latency.P99, sc15.Latency.P99)
	}
	// Large uManycore advantage over ServerClass at 15K (paper: 16.7×).
	if sc15.Latency.P99 < 5*u15.Latency.P99 {
		t.Errorf("uMC advantage at 15K only %vx", sc15.Latency.P99/u15.Latency.P99)
	}
	// ServerClass utilization bands (§5): <30% at 5K, >60% at 15K.
	if sc5.Utilization > 0.35 {
		t.Errorf("ServerClass util at 5K = %v, want <~0.30", sc5.Utilization)
	}
	if sc15.Utilization < 0.55 {
		t.Errorf("ServerClass util at 15K = %v, want >0.60", sc15.Utilization)
	}
}

func TestHardwareRQRejectionUnderOverload(t *testing.T) {
	cfg := UManycoreConfig()
	cfg.Cores = 16
	cfg.Domains = 2
	cfg.RQCapacity = 4
	cfg.NICBufCapacity = 4
	cfg.LeafSpineCfg.Pods = 1
	cfg.LeafSpineCfg.LeavesPerPod = 2
	app, err := workload.SyntheticApp("deterministic", 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(cfg, RunConfig{App: app, RPS: 60000, Duration: 100 * sim.Millisecond,
		Warmup: 10 * sim.Millisecond, Drain: 500 * sim.Millisecond, Seed: 3})
	if res.Rejected == 0 {
		t.Fatal("overloaded tiny RQ should reject")
	}
	if res.Completed == 0 {
		t.Fatal("some requests should still complete")
	}
}

func TestWorkStealingBalancesLoad(t *testing.T) {
	// 1024 queues (per-core) with random placement: stealing should cut the
	// tail versus no stealing (the Fig 3 left edge).
	app, err := workload.SyntheticApp("exponential", 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := ScaleOutConfig()
	base.Domains = 1024
	base.Policy = sched.ZygOSSched()
	base.Policy.WorkStealing = false
	noSteal := quickRun(t, base, app, 40000)
	withSteal := base
	withSteal.Policy.WorkStealing = true
	steal := quickRun(t, withSteal, app, 40000)
	if steal.Latency.P99 >= noSteal.Latency.P99 {
		t.Fatalf("stealing did not reduce per-core-queue tail: %v vs %v",
			steal.Latency.P99, noSteal.Latency.P99)
	}
}

func TestICNContentionKnob(t *testing.T) {
	// Same machine with contention disabled must be at least as fast.
	cfg := ScaleOutConfig()
	app := appByName(t, "Text")
	with := quickRun(t, cfg, app, 20000)
	cfg.ICNContention = false
	without := quickRun(t, cfg, app, 20000)
	if without.Latency.P99 > with.Latency.P99 {
		t.Fatalf("contention-free run slower: %v vs %v", without.Latency.P99, with.Latency.P99)
	}
}

func TestContextSwitchKnob(t *testing.T) {
	// Raising CS cycles on the ServerClass dispatcher (Fig 6's knob) must
	// not improve latency, and large values must hurt clearly at load.
	app := appByName(t, "SGraph")
	lo := ServerClassConfig(40)
	lo.Policy.CSCycles = 128
	hi := ServerClassConfig(40)
	hi.Policy.CSCycles = 8192
	rlo := quickRun(t, lo, app, 12000)
	rhi := quickRun(t, hi, app, 12000)
	if rhi.Latency.P99 <= rlo.Latency.P99 {
		t.Fatalf("8192-cycle CS not worse than 128: %v vs %v", rhi.Latency.P99, rlo.Latency.P99)
	}
}

func TestRemoteCallFraction(t *testing.T) {
	cfg := UManycoreConfig()
	app := appByName(t, "HomeT")
	local := quickRun(t, cfg, app, 2000)
	cfg.RemoteCallFrac = 1.0
	cfg.RemoteRTT = 100 * sim.Microsecond
	remote := quickRun(t, cfg, app, 2000)
	if remote.Latency.Mean <= local.Latency.Mean+40 {
		t.Fatalf("remote RTT not reflected: %v vs %v", remote.Latency.Mean, local.Latency.Mean)
	}
}

func TestMeanHopsReflectTopology(t *testing.T) {
	app := appByName(t, "CPost")
	u := quickRun(t, UManycoreConfig(), app, 2000)
	s := quickRun(t, ScaleOutConfig(), app, 2000)
	if u.MeanHops <= 0 || s.MeanHops <= 0 {
		t.Fatal("no hops observed")
	}
	// Leaf-spine (≤4 hops) vs fat-tree (≤10): the paper's path-length claim.
	if u.MeanHops >= s.MeanHops {
		t.Fatalf("leaf-spine hops %v !< fat-tree hops %v", u.MeanHops, s.MeanHops)
	}
}

func TestContentionFreeAvgAndQoS(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	cfg := UManycoreConfig()
	app := appByName(t, "UrlShort")
	avg := ContentionFreeAvg(cfg, app, 7)
	if avg <= 0 {
		t.Fatal("no contention-free average")
	}
	thr := MaxQoSThroughput(cfg, app, 5, 1000, 400000, 7)
	if thr < 1000 {
		t.Fatalf("QoS throughput = %v", thr)
	}
	// The QoS-max load must actually satisfy QoS.
	res := Run(cfg, RunConfig{App: app, RPS: thr, Duration: 400 * sim.Millisecond,
		Warmup: 80 * sim.Millisecond, Seed: 7})
	if res.Latency.P99 > 5.5*avg {
		t.Fatalf("QoS violated at reported max: p99 %v vs limit %v", res.Latency.P99, 5*avg)
	}
}

func TestBurstyArrivalsRun(t *testing.T) {
	res := Run(UManycoreConfig(), RunConfig{
		App: appByName(t, "User"), RPS: 5000,
		Duration: 300 * sim.Millisecond, Warmup: 50 * sim.Millisecond,
		Arrivals: BurstyArrivals, Seed: 9,
	})
	if res.Completed == 0 {
		t.Fatal("bursty run completed nothing")
	}
}

func TestTopoKindString(t *testing.T) {
	if MeshTopo.String() != "mesh" || FatTreeTopo.String() != "fat-tree" || LeafSpineTopo.String() != "leaf-spine" {
		t.Fatal("topo names")
	}
	if TopoKind(9).String() == "" {
		t.Fatal("unknown topo")
	}
}

func TestBurstierArrivalsWidenTail(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	app := appByName(t, "CPost")
	run := func(kind ArrivalKind) *Result {
		return Run(ServerClassConfig(40), RunConfig{
			App: app, Mix: workload.SocialNetworkMix(),
			RPS: 12000, Duration: 600 * sim.Millisecond,
			Warmup: 100 * sim.Millisecond, Drain: 1500 * sim.Millisecond,
			Arrivals: kind, Seed: 13,
		})
	}
	poisson := run(PoissonArrivals)
	bursty := run(BurstyArrivals)
	// Near saturation, burstiness should not shrink the tail.
	if bursty.Latency.P99 < poisson.Latency.P99*0.8 {
		t.Fatalf("bursty tail (%v) much smaller than Poisson (%v)",
			bursty.Latency.P99, poisson.Latency.P99)
	}
}

func TestLossyStorageNetwork(t *testing.T) {
	app := appByName(t, "PstStr") // storage-heavy leaf
	run := func(loss float64) *Result {
		cfg := UManycoreConfig()
		cfg.StorageLossProb = loss
		return Run(cfg, RunConfig{App: app, RPS: 4000,
			Duration: 200 * sim.Millisecond, Warmup: 40 * sim.Millisecond,
			Drain: sim.Second, Seed: 17})
	}
	clean := run(0)
	lossy := run(0.05)
	if lossy.Completed == 0 {
		t.Fatal("lossy run completed nothing")
	}
	// Retransmissions must lengthen the tail, not the count.
	if lossy.Latency.P99 <= clean.Latency.P99 {
		t.Fatalf("5%% storage loss did not lengthen tail: %v vs %v",
			lossy.Latency.P99, clean.Latency.P99)
	}
	if lossy.Completed != clean.Completed {
		t.Fatalf("loss changed completion count: %d vs %d", lossy.Completed, clean.Completed)
	}
}

func TestMuSuiteRuns(t *testing.T) {
	apps := workload.MuSuiteApps()
	res := Run(UManycoreConfig(), RunConfig{
		App: apps[0], Mix: workload.MuSuiteMix(),
		RPS: 8000, Duration: 150 * sim.Millisecond,
		Warmup: 30 * sim.Millisecond, Drain: 600 * sim.Millisecond, Seed: 21,
	})
	if res.Completed == 0 || res.Unfinished != 0 {
		t.Fatalf("μSuite mixed run: %+v", res.Latency)
	}
	if len(res.PerRoot) != 4 {
		t.Fatalf("per-root types = %d", len(res.PerRoot))
	}
	// μSuite requests are lighter than SocialNetwork's: sub-ms tails on an
	// unloaded μManycore.
	if res.Latency.P99 > 1500 {
		t.Fatalf("μSuite P99 = %vμs", res.Latency.P99)
	}
}

// TestStreamsResetMatchesNew: a coupled fleet reuses its servers' stream
// bundles from run to run through sim.Streams.Reset. After a run has drawn
// from a bundle, resetting it must make every stream the machine draws
// from, and one it never drew from, produce what a fresh NewStreams bundle
// with the same seed produces.
func TestStreamsResetMatchesNew(t *testing.T) {
	rc := RunConfig{App: appByName(t, "CPost"), RPS: 20000, Duration: 10 * sim.Millisecond, Seed: 3}.Normalized()
	cfg := UManycoreConfig()
	cfg.StorageLossProb = 0.01 // draw from the storage-loss stream too
	eng := sim.NewEngine(rc.Seed)
	bundle := sim.NewStreams(sim.DeriveSeed(rc.Seed, 0))
	s := NewServer(eng, cfg, rc, nil, SharedEngine)
	s.SetRNG(bundle)
	Arrivals(eng, rc, rc.RPS, s.SubmitRoot, s.SubmitRootAs)
	eng.RunUntil(rc.Duration + rc.Drain)
	if s.Finish().Completed == 0 || s.streams[streamService] == nil || s.streams[streamStorageLoss] == nil {
		t.Fatal("the run did not draw from the bundle")
	}

	const seed = 99
	bundle.Reset(seed)
	fresh := sim.NewStreams(seed)
	names := append(streamNames[:], "fleet-peer")
	for _, name := range names {
		got, want := bundle.Rand(name), fresh.Rand(name)
		for i := range 64 {
			g := [...]float64{float64(got.Int63()), got.Float64(), float64(got.Intn(7)), got.NormFloat64(), got.ExpFloat64()}
			w := [...]float64{float64(want.Int63()), want.Float64(), float64(want.Intn(7)), want.NormFloat64(), want.ExpFloat64()}
			if g != w {
				t.Fatalf("stream %q draw %d after Reset: %v, fresh bundle draws %v", name, i, g, w)
			}
		}
	}
}
