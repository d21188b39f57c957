package machine

import (
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
