package machine

import (
	"cmp"
	"slices"
	"testing"

	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

func colocatedConfig(n int) Config {
	cfg := UManycoreConfig()
	cfg.Extensions.ColocatedServices = n
	return cfg
}

func TestExtensionValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative colocation", func(c *Config) { c.Extensions.ColocatedServices = -1 }},
		{"colocation above village cores", func(c *Config) { c.Extensions.ColocatedServices = c.Cores/c.Domains + 1 }},
		{"colocation without pinning", func(c *Config) {
			c.Extensions.ColocatedServices = 2
			c.Placement = RandomPlacement
		}},
		{"partition without hw rq", func(c *Config) {
			c.Extensions.ColocatedServices = 2
			c.Extensions.PartitionRQ = true
			c.Policy.HardwareRQ = false
		}},
		{"partition without colocation", func(c *Config) { c.Extensions.PartitionRQ = true }},
		{"big frac out of range", func(c *Config) { c.Extensions.BigVillageFrac = 1.5 }},
		{"big without perf", func(c *Config) { c.Extensions.BigVillageFrac = 0.5 }},
	}
	for _, tc := range cases {
		cfg := UManycoreConfig()
		tc.mutate(&cfg)
		if err := cfg.Extensions.Validate(&cfg); err == nil {
			t.Errorf("%s validated", tc.name)
		}
	}
	good := UManycoreConfig()
	if err := good.Extensions.Validate(&good); err != nil {
		t.Fatalf("default extensions invalid: %v", err)
	}
}

func TestColocationPartitionsCores(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := colocatedConfig(2)
	m := New(eng, cfg, appByName(t, "CPost"))
	// Every domain hosts 2 services; every core has a service register.
	for _, dom := range m.domains {
		seen := map[int32]bool{}
		for _, c := range m.domainCores(dom) {
			if c.svcID < 0 {
				t.Fatal("co-located core without Service ID")
			}
			seen[c.svcID] = true
		}
		if len(seen) < 1 || len(seen) > 2 {
			t.Fatalf("domain hosts %d services, want 1-2", len(seen))
		}
	}
	// Every service in the tree has instances somewhere.
	for svc := 0; svc < workload.NumSocialServices; svc++ {
		if len(m.instances[svc]) == 0 {
			t.Fatalf("service %d unplaced", svc)
		}
	}
}

func TestColocatedRunCompletes(t *testing.T) {
	cfg := colocatedConfig(2)
	res := Run(cfg, RunConfig{
		App: appByName(t, "CPost"), Mix: workload.SocialNetworkMix(),
		RPS: 3000, Duration: 150 * sim.Millisecond,
		Warmup: 30 * sim.Millisecond, Drain: 600 * sim.Millisecond, Seed: 4,
	})
	if res.Completed == 0 || res.Unfinished != 0 {
		t.Fatalf("colocated run: completed=%d unfinished=%d", res.Completed, res.Unfinished)
	}
}

func TestCoreStealingHelps(t *testing.T) {
	// Under co-location with skewed load, letting idle cores serve other
	// instances should not hurt and typically trims the tail.
	base := colocatedConfig(2)
	run := func(cfg Config) *Result {
		return Run(cfg, RunConfig{
			App: appByName(t, "CPost"), Mix: workload.SocialNetworkMix(),
			RPS: 20000, Duration: 200 * sim.Millisecond,
			Warmup: 40 * sim.Millisecond, Drain: 800 * sim.Millisecond, Seed: 6,
		})
	}
	noSteal := run(base)
	withSteal := base
	withSteal.Extensions.CoreStealing = true
	steal := run(withSteal)
	if steal.Completed == 0 || noSteal.Completed == 0 {
		t.Fatal("runs incomplete")
	}
	if steal.Latency.P99 > noSteal.Latency.P99*1.25 {
		t.Fatalf("core stealing made the tail much worse: %v vs %v",
			steal.Latency.P99, noSteal.Latency.P99)
	}
}

func TestRQPartitioning(t *testing.T) {
	cfg := colocatedConfig(2)
	cfg.Extensions.PartitionRQ = true
	res := Run(cfg, RunConfig{
		App: appByName(t, "CPost"), Mix: workload.SocialNetworkMix(),
		RPS: 3000, Duration: 150 * sim.Millisecond,
		Warmup: 30 * sim.Millisecond, Drain: 600 * sim.Millisecond, Seed: 4,
	})
	if res.Completed == 0 {
		t.Fatal("partitioned-RQ run completed nothing")
	}
}

func TestHeterogeneousVillages(t *testing.T) {
	cfg := UManycoreConfig()
	cfg.Extensions.BigVillageFrac = 0.25
	cfg.Extensions.BigCorePerf = 1.65
	eng := sim.NewEngine(1)
	m := New(eng, cfg, appByName(t, "CPost"))
	big := 0
	for _, dom := range m.domains {
		if m.perfOf(dom) > cfg.PerfFactor {
			big++
		}
	}
	if big != 32 {
		t.Fatalf("big villages = %d, want 32 of 128", big)
	}
	// Faster villages should lower the mean latency versus homogeneous.
	homog := Run(UManycoreConfig(), RunConfig{
		App: appByName(t, "HomeT"), RPS: 3000,
		Duration: 150 * sim.Millisecond, Warmup: 30 * sim.Millisecond,
		Drain: 600 * sim.Millisecond, Seed: 8,
	})
	hetero := Run(cfg, RunConfig{
		App: appByName(t, "HomeT"), RPS: 3000,
		Duration: 150 * sim.Millisecond, Warmup: 30 * sim.Millisecond,
		Drain: 600 * sim.Millisecond, Seed: 8,
	})
	if hetero.Latency.Mean >= homog.Latency.Mean {
		t.Fatalf("heterogeneous villages did not help: %v vs %v",
			hetero.Latency.Mean, homog.Latency.Mean)
	}
}

// TestBigVillagesGoToHeaviestServices: pinned placement hands the big
// villages to the services that compute most per request (weight × mean
// compute), and without big villages keeps the ranges in service-ID order.
func TestBigVillagesGoToHeaviestServices(t *testing.T) {
	app := appByName(t, "CPost")
	cfg := UManycoreConfig()
	cfg.Extensions.BigVillageFrac = 0.25
	cfg.Extensions.BigCorePerf = 1.65
	m := New(sim.NewEngine(1), cfg, app)
	weights := serviceWeights(app.Catalog, m.mix)
	load := func(svc int) float64 { return weights[svc] * app.Catalog.Service(svc).MeanComputeMicros() }
	var svcs []int
	for svc := range weights {
		svcs = append(svcs, svc)
	}
	slices.Sort(svcs)
	slices.SortStableFunc(svcs, func(a, b int) int { return cmp.Compare(load(b), load(a)) })
	// From the heaviest service down, every big village comes before the
	// first small one.
	sawSmall := false
	for i, svc := range svcs {
		big := 0
		for _, dom := range m.instances[svc] {
			if m.perfOf(dom) > cfg.PerfFactor {
				big++
			}
		}
		n := len(m.instances[svc])
		t.Logf("%-8s load %7.1f: %d of %d villages big", app.Catalog.Service(svc).Name, load(svc), big, n)
		if i == 0 && big == 0 {
			t.Errorf("heaviest service %s has no big village", app.Catalog.Service(svc).Name)
		}
		if sawSmall && big > 0 {
			t.Errorf("%s has %d big villages after a heavier service got a small one", app.Catalog.Service(svc).Name, big)
		}
		sawSmall = sawSmall || big < n
	}
	homog := New(sim.NewEngine(1), UManycoreConfig(), app)
	slices.Sort(svcs)
	for i := 1; i < len(svcs); i++ {
		if homog.instances[svcs[i]][0].id <= homog.instances[svcs[i-1]][0].id {
			t.Fatalf("homogeneous ranges not in service-ID order: service %d starts at domain %d, service %d at %d",
				svcs[i-1], homog.instances[svcs[i-1]][0].id, svcs[i], homog.instances[svcs[i]][0].id)
		}
	}
}

func TestExtensionsDeterministic(t *testing.T) {
	cfg := colocatedConfig(3)
	cfg.Extensions.CoreStealing = true
	run := func() *Result {
		return Run(cfg, RunConfig{
			App: appByName(t, "CPost"), Mix: workload.SocialNetworkMix(),
			RPS: 5000, Duration: 100 * sim.Millisecond,
			Warmup: 20 * sim.Millisecond, Drain: 400 * sim.Millisecond, Seed: 9,
		})
	}
	a, b := run(), run()
	if a.Latency != b.Latency {
		t.Fatalf("extension run nondeterministic: %+v vs %+v", a.Latency, b.Latency)
	}
}

// TestColocationNoStarvedMember: eight services share each 8-core village,
// so proportional shares used to spend every core before the last member
// was placed, leaving it a dispatch-table entry and no core to run on; its
// requests then waited forever.
func TestColocationNoStarvedMember(t *testing.T) {
	cfg := colocatedConfig(8)
	res := Run(cfg, RunConfig{
		App: appByName(t, "CPost"), RPS: 20000,
		Duration: sim.Millisecond, Drain: 20 * sim.Millisecond, Seed: 1,
	})
	if res.Submitted == 0 || res.Completed != res.Submitted {
		t.Fatalf("completed %d of %d roots (rejected %d, unfinished %d)",
			res.Completed, res.Submitted, res.Rejected, res.Unfinished)
	}
}

// TestColocationSkewedShares: one member of a 3-service group carries 90%
// of the weight, so its proportional share of an 8-core village is 7 and
// the other two must split the last core; each must still get one.
func TestColocationSkewedShares(t *testing.T) {
	m := New(sim.NewEngine(1), colocatedConfig(3), appByName(t, "CPost"))
	for svc := range m.instances {
		m.instances[svc] = nil
	}
	m.placeColocated(map[int]float64{0: 0.9, 1: 0.05, 2: 0.05})
	for _, dom := range m.domains {
		cores := map[int32]int{}
		for _, c := range m.domainCores(dom) {
			cores[c.svcID]++
		}
		for svc, doms := range m.instances {
			if slices.Contains(doms, dom) && cores[int32(svc)] == 0 {
				t.Fatalf("domain %d lists service %d but gives it no core (cores per service %v)", dom.id, svc, cores)
			}
		}
	}
}
