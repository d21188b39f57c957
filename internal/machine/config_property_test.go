package machine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"umanycore/internal/icn"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// configMutation sets one settable Config field to a value drawn from a
// small set that includes invalid ones. names are the fragments an error
// about that field carries (matched case-insensitively).
type configMutation struct {
	field string
	names []string
	apply func(c *Config, r *rand.Rand)
}

func pick[T any](r *rand.Rand, vs ...T) T { return vs[r.Intn(len(vs))] }

var configMutations = []configMutation{
	{"Cores", []string{"cores"}, func(c *Config, r *rand.Rand) {
		c.Cores = pick(r, -8, 0, 1, 3, 8, 40, 64, 128, 1024)
	}},
	{"Domains", []string{"domains"}, func(c *Config, r *rand.Rand) {
		c.Domains = pick(r, -1, 0, 1, 2, 4, 5, 8, 32, 128, 1024, 2048)
	}},
	{"Placement", []string{"placement"}, func(c *Config, r *rand.Rand) {
		c.Placement = pick(r, PinnedPlacement, RandomPlacement, Placement(2), Placement(-1))
	}},
	{"RQCapacity", []string{"rq capacity", "rq needs capacity"}, func(c *Config, r *rand.Rand) {
		c.RQCapacity = pick(r, -1, 0, 1, 2, 64, math.MaxInt32, math.MaxInt32+1)
	}},
	{"NICBufCapacity", []string{"nic buffer capacity", "nicbufcapacity"}, func(c *Config, r *rand.Rand) {
		c.NICBufCapacity = pick(r, -1, 0, 1, 256, math.MaxInt32+1)
	}},
	{"TreeAffinity", []string{"treeaffinity"}, func(c *Config, r *rand.Rand) { c.TreeAffinity = !c.TreeAffinity }},
	{"CentralDispatcher", nil, func(c *Config, r *rand.Rand) { c.CentralDispatcher = !c.CentralDispatcher }},
	{"Topo", []string{"topology", "mesh dims", "fat-tree leaves", "leaf-spine dims"}, func(c *Config, r *rand.Rand) {
		c.Topo = pick(r, MeshTopo, FatTreeTopo, LeafSpineTopo, TopoKind(3))
	}},
	{"MeshW/MeshH", []string{"mesh dims"}, func(c *Config, r *rand.Rand) {
		c.MeshW, c.MeshH = pick(r, -2, 0, 1, 4, 16), pick(r, -2, 0, 1, 3, 8)
	}},
	{"FatTreeLeaves", []string{"fat-tree leaves"}, func(c *Config, r *rand.Rand) {
		c.FatTreeLeaves = pick(r, -4, 0, 1, 2, 3, 12, 32, 64)
	}},
	{"LeafSpineCfg", []string{"leaf-spine dims"}, func(c *Config, r *rand.Rand) {
		c.LeafSpineCfg = icn.LeafSpineConfig{
			Pods: pick(r, 0, 1, 2, 4), LeavesPerPod: pick(r, -1, 1, 3, 8),
			L2PerPod: pick(r, 0, 1, 4), L3Count: pick(r, 0, 1, 8),
		}
	}},
	{"Extensions.ColocatedServices", []string{"co-location", "co-located"}, func(c *Config, r *rand.Rand) {
		c.Extensions.ColocatedServices = pick(r, -1, 0, 1, 2, 3, 16)
	}},
	{"Extensions.PartitionRQ", []string{"rq partitioning"}, func(c *Config, r *rand.Rand) {
		c.Extensions.PartitionRQ = !c.Extensions.PartitionRQ
	}},
	{"Extensions.CoreStealing", nil, func(c *Config, r *rand.Rand) {
		c.Extensions.CoreStealing = !c.Extensions.CoreStealing
	}},
	{"Extensions.BigVillageFrac", []string{"big-village", "big villages"}, func(c *Config, r *rand.Rand) {
		c.Extensions.BigVillageFrac = pick(r, -0.5, 0, 0.25, 1, 1.5, math.NaN())
		c.Extensions.BigCorePerf = pick(r, 0, 1.65)
	}},
	{"Extensions.BigCorePerf", []string{"big villages"}, func(c *Config, r *rand.Rand) {
		c.Extensions.BigVillageFrac = 0.5
		c.Extensions.BigCorePerf = pick(r, -1, 0, 1.65, math.NaN())
	}},
}

// TestConfigSurfaceProperty mutates one to three settable fields of each
// preset from a fixed seed and requires that every mutated config is
// either rejected, by Validate or by the hosting check, with an error
// naming a mutated field, or runs a 1 ms window to the end with every root
// accounted for. A config that passes both checks and then panics fails.
func TestConfigSurfaceProperty(t *testing.T) {
	presets := []func() Config{UManycoreConfig, ScaleOutConfig, func() Config { return ServerClassConfig(40) }}
	app := appByName(t, "CPost")
	r := rand.New(rand.NewSource(5))
	runs, rejected := 0, 0
	for i := 0; i < 300; i++ {
		cfg := presets[i%len(presets)]()
		var applied []configMutation
		var fields []string
		for n := 1 + r.Intn(3); n > 0; n-- {
			m := configMutations[r.Intn(len(configMutations))]
			m.apply(&cfg, r)
			applied = append(applied, m)
			fields = append(fields, m.field)
		}
		rc := RunConfig{App: app, RPS: 20000, Duration: sim.Millisecond, Drain: 20 * sim.Millisecond, Seed: int64(i)}
		if i%2 == 1 {
			rc.Mix = workload.SocialNetworkMix()
		}
		desc := fmt.Sprintf("case %d (%s, mix %v, mutated %v)", i, cfg.Name, rc.Mix != nil, fields)
		err := cfg.Validate()
		if err == nil {
			err = CheckHosting(cfg, rc, nil)
		}
		if err != nil {
			rejected++
			if !namesAField(err, applied) {
				t.Errorf("%s: error %q names none of the mutated fields", desc, err)
			}
			continue
		}
		res := runNoPanic(t, desc, cfg, rc)
		if res == nil {
			continue
		}
		runs++
		if res.Submitted == 0 || res.Submitted != res.Completed+res.Rejected+uint64(res.Unfinished) {
			t.Errorf("%s: submitted %d != completed %d + rejected %d + unfinished %d",
				desc, res.Submitted, res.Completed, res.Rejected, res.Unfinished)
		}
	}
	t.Logf("%d configs ran, %d rejected", runs, rejected)
	// The corpus must exercise both outcomes.
	if runs < 50 || rejected < 50 {
		t.Fatalf("corpus ran %d configs and rejected %d; want at least 50 of each", runs, rejected)
	}
}

func namesAField(err error, applied []configMutation) bool {
	msg := strings.ToLower(err.Error())
	for _, m := range applied {
		for _, name := range m.names {
			if strings.Contains(msg, name) {
				return true
			}
		}
	}
	return false
}

// runNoPanic runs cfg under rc and reports a panic as a test error.
func runNoPanic(t *testing.T, desc string, cfg Config, rc RunConfig) (res *Result) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s: passed Validate and CheckHosting, then panicked: %v", desc, p)
			res = nil
		}
	}()
	return Run(cfg, rc)
}
