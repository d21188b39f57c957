package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"umanycore/internal/dist"
	"umanycore/internal/stats"
)

func TestOpKindString(t *testing.T) {
	if OpCompute.String() != "compute" || OpStorage.String() != "storage" || OpCall.String() != "call" {
		t.Fatal("op kind strings")
	}
	if OpKind(9).String() == "" {
		t.Fatal("unknown kind")
	}
}

func TestCatalogValid(t *testing.T) {
	c := SocialNetworkCatalog()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Services) != NumSocialServices {
		t.Fatalf("services = %d", len(c.Services))
	}
}

func TestCatalogValidationErrors(t *testing.T) {
	cases := []*Catalog{
		{Services: []*Service{{ID: 1, Name: "badid", Ops: []Op{compute(1)}}}},
		{Services: []*Service{{ID: 0, Name: "nocompute", Ops: []Op{storage(1)}}}},
		{Services: []*Service{{ID: 0, Name: "badcallee", Ops: []Op{compute(1), call(7)}}}},
		{Services: []*Service{{ID: 0, Name: "emptycall", Ops: []Op{compute(1), {Kind: OpCall}}}}},
		{Services: []*Service{{ID: 0, Name: "nodist", Ops: []Op{{Kind: OpCompute}}}}},
		{Services: []*Service{{ID: 0, Name: "nostoragedist", Ops: []Op{compute(1), {Kind: OpStorage}}}}},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("catalog %q validated", c.Services[0].Name)
		}
	}
	// Cycle: 0 -> 1 -> 0.
	cyc := &Catalog{Services: []*Service{
		{ID: 0, Name: "a", Ops: []Op{compute(1), call(1)}},
		{ID: 1, Name: "b", Ops: []Op{compute(1), call(0)}},
	}}
	if err := cyc.Validate(); err == nil {
		t.Error("cycle validated")
	}
}

func TestServiceMetrics(t *testing.T) {
	c := SocialNetworkCatalog()
	u := c.Service(SvcUrlShort)
	if got := u.MeanComputeMicros(); got != 120 {
		t.Fatalf("UrlShort compute = %v", got)
	}
	if u.BlockingOps() != 2 || u.RPCCount() != 2 {
		t.Fatalf("UrlShort blocking/rpcs = %d/%d", u.BlockingOps(), u.RPCCount())
	}
	cp := c.Service(SvcCPost)
	if cp.RPCCount() != 7 { // one call op with 6 callees + 1 storage
		t.Fatalf("CPost RPCs = %d", cp.RPCCount())
	}
	if c.Service(SvcHomeT).RPCCount() != 13 { // 12 parallel callees + 1 storage
		t.Fatalf("HomeT RPCs = %d", c.Service(SvcHomeT).RPCCount())
	}
}

func TestUnknownServicePanics(t *testing.T) {
	c := SocialNetworkCatalog()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Service(99)
}

func TestAppsPaperCalibration(t *testing.T) {
	apps := SocialNetworkApps()
	if len(apps) != 8 {
		t.Fatalf("apps = %d", len(apps))
	}
	byName := map[string]*App{}
	for _, a := range apps {
		byName[a.Name] = a
	}
	// Calibration: average invocation compute ≈130μs (the paper's DSB
	// figure is 120μs), ≈3 RPCs per invocation averaged across services.
	c := SocialNetworkCatalog()
	var cpu, rpcs float64
	for _, s := range c.Services {
		cpu += s.MeanComputeMicros()
		rpcs += float64(s.RPCCount())
	}
	cpu /= float64(len(c.Services))
	rpcs /= float64(len(c.Services))
	if cpu < 110 || cpu > 160 {
		t.Errorf("mean invocation compute = %vμs, want ≈130", cpu)
	}
	// HomeT's wide timeline fan-out lifts the unweighted per-service mean;
	// the *invocation-weighted* mean stays near the paper's 3.1 because the
	// fan-out targets are storage-light leaves.
	if rpcs < 2.5 || rpcs > 5.0 {
		t.Errorf("mean RPCs per invocation = %v, want ≈3-4", rpcs)
	}
	var invocations, totalRPCs float64
	for _, a := range apps {
		st := a.Stats()
		invocations += float64(st.Invocations)
		totalRPCs += float64(st.RPCs)
	}
	if w := totalRPCs / invocations; w < 2.0 || w > 4.0 {
		t.Errorf("invocation-weighted RPCs = %v, want ≈3.1", w)
	}
	// Structure: UrlShort is a leaf; CPost has the largest tree (the paper's
	// highest-latency app); SGraph/HomeT fan out.
	if byName["UrlShort"].Stats().Invocations != 1 {
		t.Error("UrlShort should be a leaf")
	}
	cpost := byName["CPost"].Stats()
	for name, a := range byName {
		if name == "CPost" {
			continue
		}
		if a.Stats().Invocations >= cpost.Invocations {
			t.Errorf("%s tree (%d) >= CPost (%d)", name, a.Stats().Invocations, cpost.Invocations)
		}
	}
	if s := byName["HomeT"].Stats(); s.Invocations < 4 {
		t.Errorf("HomeT tree = %d, want fan-out", s.Invocations)
	}
}

func TestTreeStats(t *testing.T) {
	apps := SocialNetworkApps()
	var cpost *App
	for _, a := range apps {
		if a.Name == "CPost" {
			cpost = a
		}
	}
	s := cpost.Stats()
	// CPost: 1 + Text(4) + UsrMnt(2) + UrlShort(1) + PstStr(1) + HomeT(16)
	// + SGraph(3) = 28 invocations.
	if s.Invocations != 28 {
		t.Fatalf("CPost invocations = %d, want 28", s.Invocations)
	}
	if s.TotalCPUMicros < 3000 || s.TotalCPUMicros > 5500 {
		t.Fatalf("CPost total CPU = %v", s.TotalCPUMicros)
	}
	// Critical path is below total CPU (parallel calls) but above the
	// root's own compute.
	if s.CriticalPathMicros >= s.TotalCPUMicros {
		t.Fatal("critical path not shortened by parallelism")
	}
	if s.CriticalPathMicros < 180 {
		t.Fatalf("critical path = %v", s.CriticalPathMicros)
	}
}

func TestSyntheticApp(t *testing.T) {
	for _, name := range []string{"exponential", "lognormal", "bimodal"} {
		app, err := SyntheticApp(name, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		s := app.Catalog.Service(0)
		if s.BlockingOps() != 3 {
			t.Fatalf("%s blocking ops = %d", name, s.BlockingOps())
		}
		if got := s.MeanComputeMicros(); math.Abs(got-100) > 1 {
			t.Fatalf("%s mean compute = %v", name, got)
		}
	}
	if _, err := SyntheticApp("nope", 100, 2); err == nil {
		t.Fatal("bad dist accepted")
	}
	for _, blocks := range []int{0, MaxSyntheticBlockingCalls} {
		app, err := SyntheticApp("exp", 50, blocks)
		if err != nil || app.Catalog.Service(0).BlockingOps() != blocks {
			t.Fatalf("%d blocking calls: %v", blocks, err)
		}
	}
}

// The command-line synthetic spec parses into the same app SyntheticApp
// builds, and every malformed part is an error that names it — a bad mean
// by the value given, not by the per-segment mean derived from it.
func TestParseSyntheticApp(t *testing.T) {
	app, err := ParseSyntheticApp("synthetic:bimodal:10:3")
	if err != nil {
		t.Fatal(err)
	}
	if s := app.Catalog.Service(0); app.Name != "synthetic-bimodal" || s.BlockingOps() != 3 ||
		math.Abs(s.MeanComputeMicros()-10) > 1e-9 {
		t.Fatalf("parsed app %s: %d blocking ops, mean %v", app.Name, s.BlockingOps(), s.MeanComputeMicros())
	}
	for spec, want := range map[string]string{
		"synthetic:lognormal:-5:2":  "-5",
		"synthetic:lognormal:NaN:2": "NaN",
		"synthetic:exp:Inf:0":       "+Inf",
		"synthetic:exp:0:1":         "mean 0",
		"synthetic:exp:1e9:1":       "1e+09",
		"synthetic:exp:ten:1":       `"ten"`,
		"synthetic:exp:10:x":        `"x"`,
		"synthetic:exp:10:-1":       "block count -1",
		"synthetic:exp:10:1025":     "block count 1025",
		"synthetic:exp:10:99999999": "block count 99999999",
		"synthetic:cauchy:10:1":     `"cauchy"`,
		"synthetic:exp:10":          "synthetic:<dist>:<mean_us>:<blocks>",
		"lognormal:10:2:1":          "synthetic:<dist>:<mean_us>:<blocks>",
	} {
		_, err := ParseSyntheticApp(spec)
		if err == nil {
			t.Fatalf("%s accepted", spec)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not name %s", spec, err, want)
		}
	}
}

func TestTraceGenFig2Marginals(t *testing.T) {
	g := NewTraceGen(1)
	loads := g.ServerLoad(20000)
	var s stats.Sample
	for _, l := range loads {
		s.Add(float64(l))
	}
	if med := s.Median(); med < 420 || med > 580 {
		t.Errorf("median RPS = %v, want ≈500", med)
	}
	if f := s.FracAtLeast(1000); f < 0.12 || f > 0.26 {
		t.Errorf("frac ≥1000 RPS = %v, want ≈0.20", f)
	}
	if f := s.FracAtLeast(1500); f < 0.02 || f > 0.10 {
		t.Errorf("frac ≥1500 RPS = %v, want ≈0.05", f)
	}
}

func TestTraceGenFig4Fig5Marginals(t *testing.T) {
	g := NewTraceGen(2)
	recs := g.Requests(50000)
	var util, rpcs, dur stats.Sample
	short := 0
	var longDurs []float64
	for _, rec := range recs {
		util.Add(rec.CPUUtil)
		rpcs.Add(float64(rec.RPCs))
		dur.Add(rec.DurationMicros)
		if rec.DurationMicros < 1000 {
			short++
		} else {
			longDurs = append(longDurs, rec.DurationMicros)
		}
		if rec.CPUUtil < 0 || rec.CPUUtil > 1 {
			t.Fatalf("util out of range: %v", rec.CPUUtil)
		}
		if rec.RPCs < 0 {
			t.Fatalf("negative RPCs")
		}
	}
	if med := util.Median(); med < 0.11 || med > 0.18 {
		t.Errorf("median CPU util = %v, want ≈0.14", med)
	}
	if p99 := util.P99(); p99 > 0.62 {
		t.Errorf("P99 CPU util = %v, want <0.6", p99)
	}
	if med := rpcs.Median(); med < 3.4 || med > 5.0 {
		t.Errorf("median RPCs = %v, want ≈4.2", med)
	}
	if f := rpcs.FracAtLeast(16); f < 0.02 || f > 0.09 {
		t.Errorf("frac ≥16 RPCs = %v, want ≈0.05", f)
	}
	// Duration marginals from §3.3.
	fShort := float64(short) / float64(len(recs))
	if fShort < 0.32 || fShort > 0.42 {
		t.Errorf("frac <1ms = %v, want ≈0.367", fShort)
	}
	gm := stats.GeoMean(longDurs) / 1000 // ms
	if gm < 2.2 || gm > 3.6 {
		t.Errorf("geomean long duration = %vms, want ≈2.8", gm)
	}
}

func TestTraceGenDeterministic(t *testing.T) {
	a := NewTraceGen(7).Requests(100)
	b := NewTraceGen(7).Requests(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace generation not deterministic")
		}
	}
}

func TestBurstyArrivalsMeanRate(t *testing.T) {
	m := BurstyArrivals(5000)
	if math.Abs(m.MeanRate()-5000)/5000 > 0.01 {
		t.Fatalf("MeanRate = %v", m.MeanRate())
	}
}

func TestFig8Sharing(t *testing.T) {
	rows := RunFig8(DefaultFootprintConfig(), 20, 3)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		// Paper: common fractions 78–99% across all granularities.
		for name, v := range map[string]float64{
			"d-page": row.DPage, "d-line": row.DLine,
			"i-page": row.IPage, "i-line": row.ILine,
		} {
			if v < 0.70 || v > 1.0 {
				t.Errorf("%s %s common frac = %v, want 0.78–0.99", row.Group, name, v)
			}
		}
		// Instructions share more than data; data lines share less than
		// data pages (the figure's shape).
		if row.IPage <= row.DPage {
			t.Errorf("%s: i-page (%v) should exceed d-page (%v)", row.Group, row.IPage, row.DPage)
		}
		if row.DLine >= row.DPage {
			t.Errorf("%s: d-line (%v) should be below d-page (%v)", row.Group, row.DLine, row.DPage)
		}
	}
}

func TestHandlerFootprintSize(t *testing.T) {
	cfg := DefaultFootprintConfig()
	h := cfg.GenHandler(rand.New(rand.NewSource(5)), 1000)
	// ~0.5MB handler footprint per §3.5.
	if fb := h.FootprintBytes(); fb < 300<<10 || fb > 800<<10 {
		t.Fatalf("handler footprint = %dKB, want ≈512KB", fb>>10)
	}
}

func TestDistMeansUsedByCatalog(t *testing.T) {
	// Compute ops use lognormal with the stated mean; sanity-check one.
	c := SocialNetworkCatalog()
	op := c.Service(SvcUser).Ops[0]
	if op.Kind != OpCompute {
		t.Fatal("first op should be compute")
	}
	if math.Abs(op.Time.Mean()-60) > 1e-9 {
		t.Fatalf("User first compute mean = %v", op.Time.Mean())
	}
	if _, ok := op.Time.(dist.Lognormal); !ok {
		t.Fatal("compute should be lognormal")
	}
}

func TestSocialNetworkMix(t *testing.T) {
	mix := SocialNetworkMix()
	var total float64
	seen := map[int]bool{}
	for _, e := range mix {
		if e.Weight <= 0 {
			t.Fatalf("nonpositive weight for root %d", e.Root)
		}
		if seen[e.Root] {
			t.Fatalf("duplicate root %d", e.Root)
		}
		seen[e.Root] = true
		total += e.Weight
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("mix weights sum to %v", total)
	}
	if len(mix) != NumSocialServices {
		t.Fatalf("mix covers %d of %d request types", len(mix), NumSocialServices)
	}
	// Reads dominate writes; CPost is the heavy write path.
	w := map[int]float64{}
	for _, e := range mix {
		w[e.Root] = e.Weight
	}
	if w[SvcHomeT] < w[SvcCPost] || w[SvcCPost] < w[SvcUrlShort] {
		t.Fatal("mix weights not social-network-shaped")
	}
}

func TestStatsSortedAppOrder(t *testing.T) {
	// AppNames must match the paper's figure order exactly.
	want := []string{"Text", "SGraph", "User", "PstStr", "UsrMnt", "HomeT", "CPost", "UrlShort"}
	if len(AppNames) != len(want) {
		t.Fatal("AppNames length")
	}
	for i := range want {
		if AppNames[i] != want[i] {
			t.Fatalf("AppNames[%d] = %s, want %s", i, AppNames[i], want[i])
		}
	}
	// And SocialNetworkApps returns them in that order.
	apps := SocialNetworkApps()
	for i := range want {
		if apps[i].Name != want[i] {
			t.Fatalf("apps[%d] = %s, want %s", i, apps[i].Name, want[i])
		}
	}
}
