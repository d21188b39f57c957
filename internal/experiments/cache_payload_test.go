package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"regexp"
	"testing"

	"umanycore/internal/control"
	"umanycore/internal/fleet"
	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
	"umanycore/internal/sweep"
	"umanycore/internal/sweepcache"
	"umanycore/internal/telemetry"
	"umanycore/internal/whatif"
	"umanycore/internal/workload"
)

// checkCellPayload pins the cell-cache contract for one result type: the
// JSON payload decodes to a value DeepEqual to the original and re-encodes
// to the same bytes, a foreign payload stored under the cell's key (checksum
// valid, but not this value's encoding) is invalidated and recomputed —
// never a hit — and the repaired cell then hits.
func checkCellPayload[R any](t *testing.T, v R, foreign []byte) {
	t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var dec R
	if err := json.Unmarshal(enc, &dec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, v) {
		t.Fatalf("decode changed the value:\n got %+v\nwant %+v", dec, v)
	}
	if re, err := json.Marshal(dec); err != nil || !bytes.Equal(re, enc) {
		t.Fatalf("re-encode differs (%v):\n%s\nvs\n%s", err, re, enc)
	}
	if bytes.Equal(foreign, enc) {
		t.Fatal("foreign payload equals the real one; the case proves nothing")
	}

	c := withTestCache(t)
	pre := sweepcache.NewKey("test/payload").Preimage()
	c.Store(pre, foreign)
	runs := 0
	cell := func() R {
		return sweep.MapCached(1, []testCell[R]{{pre, func() R { runs++; return v }}})[0]
	}
	if got := cell(); !reflect.DeepEqual(got, v) || runs != 1 {
		t.Fatalf("foreign payload: got %+v after %d runs, want the recomputed value", got, runs)
	}
	if s := c.Snapshot(); s.Hits != 0 || s.Invalid != 1 || s.Stores != 2 {
		t.Fatalf("foreign payload: counters %+v, want 0 hits, 1 invalid, 2 stores", s)
	}
	if got := cell(); !reflect.DeepEqual(got, v) || runs != 1 {
		t.Fatalf("repaired cell: got %+v after %d runs, want a hit", got, runs)
	}
	if s := c.Snapshot(); s.Hits != 1 || s.Invalid != 1 {
		t.Fatalf("repaired cell: counters %+v, want 1 hit", s)
	}
}

// testCell is a cell with a fixed key and a computation.
type testCell[R any] struct {
	key []byte
	run func() R
}

func (c testCell[R]) Key() []byte { return c.key }
func (c testCell[R]) Run() R      { return c.run() }

// payloadMachineResult is a small but fully populated run: mixed load, so
// PerRoot and the raw sample are non-trivial.
func payloadMachineResult() *machine.Result {
	return machine.Run(machine.UManycoreConfig(), machine.RunConfig{
		App:      workload.SocialNetworkApps()[0],
		Mix:      workload.SocialNetworkMix(),
		RPS:      4000,
		Duration: 100 * sim.Millisecond,
		Warmup:   20 * sim.Millisecond,
		Drain:    sim.Second,
		Seed:     11,
	})
}

// payloadControlledFleet runs an overloaded 3-server fleet with retries,
// hedging and shedding enabled, so rejects, sheds and retries are non-zero.
func payloadControlledFleet(t *testing.T) *fleet.Result {
	cfg := machine.UManycoreConfig()
	cfg.Cores = 16
	cfg.Domains = 2
	cfg.RQCapacity = 4
	cfg.NICBufCapacity = 4
	cfg.LeafSpineCfg.Pods = 1
	cfg.LeafSpineCfg.LeavesPerPod = 2
	fc := fleet.DefaultConfig(cfg)
	fc.Servers = 3
	fc.Machine.RemoteCallFrac = 0.25
	fc.Control = &control.Config{
		MaxRetries:    3,
		RetryBase:     50 * sim.Microsecond,
		RetryCap:      400 * sim.Microsecond,
		RetryJitter:   0.5,
		HedgeAfter:    2 * sim.Millisecond,
		ShedProb:      0.5,
		ShedSLOMicros: 500,
		ShedWindow:    sim.Millisecond,
	}
	app, err := workload.SyntheticApp("deterministic", 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	rc := machine.RunConfig{Duration: 40 * sim.Millisecond, Warmup: 8 * sim.Millisecond, Drain: sim.Second}
	r := fleet.Run(fc, app, 90000, rc, 17)
	if c := r.Control; c == nil || c.Rejected == 0 || c.Shed == 0 || c.Retries == 0 {
		t.Fatalf("run left control counters idle: %+v", r.Control)
	}
	if r.Fabric == nil || r.WallSeconds == 0 {
		t.Fatal("coupled run reported no fabric stats or wall time")
	}
	// Wall clock and fabric diagnostics are not part of the payload
	// (json:"-"): a cached result carries their zero values.
	r.WallSeconds, r.Fabric = 0, nil
	return r
}

func payloadWhatIfCell(perServer bool) whatif.Cell {
	c := whatif.Cell{
		Latency: stats.Summary{N: 42, Mean: 10.5, Median: 9.25, P99: 31.75, Max: 40},
		P999US:  38.5,
		Blame: obs.BlameSummary{
			TopFrac:      0.01,
			Total:        4200,
			Analyzed:     42,
			Cutoff:       31 * sim.Microsecond,
			P99:          32 * sim.Microsecond,
			TotalLatency: 1234 * sim.Microsecond,
		},
	}
	c.Blame.ByStage[obs.StageService] = 1000 * sim.Microsecond
	c.Blame.ByStage[obs.StageNet] = 234 * sim.Microsecond
	if perServer {
		c.Blame.ByServerStage = make([][obs.NumStages]sim.Time, 2)
		c.Blame.ByServerStage[0][obs.StageService] = 700 * sim.Microsecond
		c.Blame.ByServerStage[1][obs.StageService] = 300 * sim.Microsecond
		c.Blame.ByServerStage[1][obs.StageNet] = 234 * sim.Microsecond
	}
	return c
}

// truncateByStage rewrites a what-if payload's stage vector to two entries:
// it still decodes (the rest of the array reads as zero), but re-encodes
// with every stage.
func truncateByStage(t *testing.T, c whatif.Cell) []byte {
	enc, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	out := regexp.MustCompile(`"ByStage":\[[0-9,]*\]`).ReplaceAll(enc, []byte(`"ByStage":[1,2]`))
	if bytes.Equal(out, enc) {
		t.Fatalf("no ByStage vector in %s", enc)
	}
	return out
}

// TestCellPayloadRoundTrip covers every result type a sweep cell stores:
// a mixed-load machine result, a controlled fleet, what-if cells with and
// without a per-server blame split, Figure 9 rows, and a scalar.
func TestCellPayloadRoundTrip(t *testing.T) {
	t.Run("machine", func(t *testing.T) {
		r := payloadMachineResult()
		if r.Sample == nil || r.Sample.N() == 0 || len(r.PerRoot) < 2 {
			t.Fatalf("run left the sample or per-root summaries empty: %+v", r)
		}
		// An object with every field missing decodes to the zero result;
		// it must not be taken for one.
		checkCellPayload(t, r, []byte(`{}`))
	})
	t.Run("fleet_control", func(t *testing.T) {
		r := payloadControlledFleet(t)
		// A payload written for a struct that had one more field.
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		foreign := append([]byte(`{"Retired":1,`), enc[1:]...)
		checkCellPayload(t, r, foreign)
	})
	for _, perServer := range []bool{false, true} {
		name := "whatif_nil_servers"
		if perServer {
			name = "whatif_with_servers"
		}
		t.Run(name, func(t *testing.T) {
			c := payloadWhatIfCell(perServer)
			checkCellPayload(t, c, truncateByStage(t, c))
		})
	}
	t.Run("fig9", func(t *testing.T) {
		rows := []Fig9Row{
			{Class: "Data", Structure: "L1TLB", HitRate: 0.987654321},
			{Class: "Instructions", Structure: "L2Cache", HitRate: 1},
		}
		// The hand-written layout the rows had before encoding/json.
		checkCellPayload(t, rows, []byte(`{"rows":[{"class":"Data","structure":"L1TLB","hit_rate":0.987654321}]}`))
	})
	t.Run("float64", func(t *testing.T) {
		checkCellPayload(t, 3.141592653589793, []byte(`3.1415926535897930`))
		// A non-finite cell has no JSON form: computed, never stored.
		c := withTestCache(t)
		pre := sweepcache.NewKey("test/nan").Preimage()
		got := sweep.MapCached(1, []testCell[float64]{{pre, math.NaN}})
		if !math.IsNaN(got[0]) || c.Snapshot().Stores != 0 {
			t.Fatalf("NaN cell returned %v with %d stores", got[0], c.Snapshot().Stores)
		}
	})
}

// TestPreimagesRefuseAttachments: results with observability or telemetry
// attached are never cached — the payload leaves attachments out, so a hit
// would silently drop them.
func TestPreimagesRefuseAttachments(t *testing.T) {
	o := DefaultOptions()
	cfg := machine.UManycoreConfig()
	app := appNamed("HomeT")
	fc := fleet.DefaultConfig(cfg)
	fc.Servers = 2
	plain := o.runCfg(app, 1000)
	keys := func(rc machine.RunConfig) map[string][]byte {
		return map[string][]byte{
			"runCell":     runCell{cfg, rc}.Key(),
			"p99Cell":     p99Cell{runCell{cfg, rc}}.Key(),
			"fig18Search": fig18Search{cfg: cfg, roots: []int{app.Root}, limits: []float64{1}, hiRPS: 1, rc: rc}.Key(),
			"fleetCell":   fleetCell{fc, app, 1000, rc, 1}.Key(),
		}
	}
	for cell, key := range keys(plain) {
		if key == nil {
			t.Fatalf("a plain %s is uncacheable", cell)
		}
	}
	for name, attach := range map[string]func(*machine.RunConfig){
		"obs":       func(rc *machine.RunConfig) { rc.Obs = &obs.Options{Trace: true} },
		"telemetry": func(rc *machine.RunConfig) { rc.Telemetry = &telemetry.Options{} },
	} {
		rc := plain
		attach(&rc)
		for cell, key := range keys(rc) {
			if key != nil {
				t.Errorf("%s keyed a cell with %s attached", cell, name)
			}
		}
	}
}
