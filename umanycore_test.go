package umanycore

import (
	"testing"
)

func TestPresets(t *testing.T) {
	u := UManycore()
	if u.Cores != 1024 || u.Name != "uManycore" {
		t.Fatalf("UManycore preset = %+v", u)
	}
	if s := ScaleOut(); s.Cores != 1024 || s.Name != "ScaleOut" {
		t.Fatalf("ScaleOut preset = %+v", s)
	}
	if sc := ServerClass(40); sc.Cores != 40 {
		t.Fatalf("ServerClass preset = %+v", sc)
	}
	if topo := UManycoreTopology(32, 2, 16); topo.Cores != 1024 || topo.Domains != 32 {
		t.Fatalf("topology preset = %+v", topo)
	}
}

func TestQuickstartFlow(t *testing.T) {
	apps := SocialNetworkApps()
	if len(apps) != 8 {
		t.Fatalf("apps = %d", len(apps))
	}
	res := Run(UManycore(), RunConfig{
		App:      apps[len(apps)-1], // UrlShort: light and fast to simulate
		RPS:      2000,
		Duration: 100 * Millisecond,
		Warmup:   20 * Millisecond,
		Drain:    400 * Millisecond,
		Seed:     1,
	})
	if res.Completed == 0 || res.Latency.P99 <= 0 {
		t.Fatalf("quickstart result = %+v", res.Latency)
	}
}

func TestMixedRunFlow(t *testing.T) {
	apps := SocialNetworkApps()
	res := Run(UManycore(), RunConfig{
		App:      apps[0],
		Mix:      SocialNetworkMix(),
		RPS:      3000,
		Duration: 100 * Millisecond,
		Warmup:   20 * Millisecond,
		Drain:    600 * Millisecond,
		Seed:     2,
	})
	if len(res.PerRoot) != 8 {
		t.Fatalf("per-root types = %d", len(res.PerRoot))
	}
}

func TestSyntheticAppAPI(t *testing.T) {
	app, err := SyntheticApp("bimodal", 50, 4)
	if err != nil || app == nil {
		t.Fatal(err)
	}
	if _, err := SyntheticApp("weird", 50, 4); err == nil {
		t.Fatal("bad dist accepted")
	}
}

func TestFleetAPI(t *testing.T) {
	fc := DefaultFleet(UManycore())
	if fc.Servers != 10 {
		t.Fatalf("fleet = %+v", fc)
	}
	fc.Servers = 2
	res := RunFleet(fc, SocialNetworkApps()[len(SocialNetworkApps())-1], 2000,
		RunConfig{Duration: 80 * Millisecond, Warmup: 20 * Millisecond, Drain: 300 * Millisecond}, 3)
	if res.Completed == 0 {
		t.Fatal("fleet completed nothing")
	}
}

func TestPowerAreaAPI(t *testing.T) {
	if p := PackagePower("uManycore"); p < 300 || p > 550 {
		t.Fatalf("uManycore power = %v W", p)
	}
	if a := PackageArea("uManycore"); a < 500 || a > 600 {
		t.Fatalf("uManycore area = %v mm²", a)
	}
	ratio := PackagePower("ServerClass-128") / PackagePower("uManycore")
	if ratio < 2.9 || ratio > 3.5 {
		t.Fatalf("iso-area power ratio = %v, want ≈3.2", ratio)
	}
	if PackagePower("nope") != 0 || PackageArea("nope") != 0 {
		t.Fatal("unknown package should be 0")
	}
	for _, name := range []string{"ScaleOut", "ServerClass-40"} {
		if PackagePower(name) <= 0 || PackageArea(name) <= 0 {
			t.Fatalf("%s power/area missing", name)
		}
	}
}

func TestFigureAPISmoke(t *testing.T) {
	o := DefaultExperimentOptions()
	o.Duration = 60 * Millisecond
	o.Warmup = 10 * Millisecond
	o.Drain = 300 * Millisecond
	if len(Fig1(o)) != 8 {
		t.Fatal("Fig1")
	}
	if len(Fig2(o)) == 0 || len(Fig4(o)) == 0 || len(Fig5(o)) == 0 {
		t.Fatal("trace CDFs")
	}
	if len(Fig8(o)) != 2 || len(Fig9(o)) != 8 {
		t.Fatal("footprint/cache figures")
	}
	if Version == "" {
		t.Fatal("version")
	}
}
