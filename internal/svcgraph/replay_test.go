package svcgraph

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

func parseValid(t *testing.T, in string) *Trace {
	t.Helper()
	tr, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestBindDemand pins the demand math: each arrival's Demand is the record's
// CPU demand (duration × cpu_util) over its root's expected tree CPU.
func TestBindDemand(t *testing.T) {
	app := Layered(2, 2, 100)
	cat := app.Catalog
	in := Header + "\n" +
		"0.000," + cat.Service(0).Name + ",1000.0,0.5000,3\n" +
		"500.000," + cat.Service(1).Name + ",200.0,0.2500,1\n"
	rep, err := parseValid(t, in).Bind(app, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || len(rep.Arrivals) != 2 {
		t.Fatalf("replay = %+v", rep)
	}
	rootCPU := app.Stats().TotalCPUMicros
	leafCPU := (&workload.App{Name: app.Name, Root: 1, Catalog: cat}).Stats().TotalCPUMicros
	if rootCPU <= 0 || leafCPU <= 0 || rootCPU == leafCPU {
		t.Fatalf("tree cpu: root %g leaf %g", rootCPU, leafCPU)
	}
	a0, a1 := rep.Arrivals[0], rep.Arrivals[1]
	if a0.Root != 0 || a1.Root != 1 {
		t.Fatalf("roots = %d, %d", a0.Root, a1.Root)
	}
	if want := 1000 * 0.5 / rootCPU; math.Abs(a0.Demand-want) > 1e-12 {
		t.Fatalf("arrival 0 demand = %g, want %g", a0.Demand, want)
	}
	if want := 200 * 0.25 / leafCPU; math.Abs(a1.Demand-want) > 1e-12 {
		t.Fatalf("arrival 1 demand = %g, want %g", a1.Demand, want)
	}
	if a0.At != 0 || a1.At != sim.FromMicros(500) {
		t.Fatalf("verbatim arrivals = %v, %v", a0.At, a1.At)
	}
}

func TestBindRescalesToTargetRPS(t *testing.T) {
	app := Layered(1, 1, 100)
	name := app.Catalog.Service(0).Name
	// Two records spanning 1000us: mean rate 2000 RPS.
	in := Header + "\n500.000," + name + ",100.0,0.5000,1\n1000.000," + name + ",100.0,0.5000,1\n"
	rep, err := parseValid(t, in).Bind(app, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// Rescaling 2000 -> 4000 RPS halves every arrival time.
	if rep.Arrivals[0].At != sim.FromMicros(250) || rep.Arrivals[1].At != sim.FromMicros(500) {
		t.Fatalf("rescaled arrivals = %v, %v", rep.Arrivals[0].At, rep.Arrivals[1].At)
	}
}

func TestBindUnknownService(t *testing.T) {
	app := Layered(1, 1, 100)
	tr := parseValid(t, Header+"\n1.000,nosuch,100.0,0.5000,1\n")
	_, err := tr.Bind(app, 0)
	if err == nil || !strings.Contains(err.Error(), `record 1: unknown service "nosuch"`) {
		t.Fatalf("error = %v", err)
	}
}

func TestReplayMix(t *testing.T) {
	rep := &Replay{Arrivals: []Arrival{{Root: 3}, {Root: 0}, {Root: 3}, {Root: 3}}}
	want := []workload.MixEntry{{Root: 0, Weight: 1}, {Root: 3, Weight: 3}}
	if got := rep.Mix(); !reflect.DeepEqual(got, want) {
		t.Fatalf("mix = %+v", got)
	}
}

func TestReplayedWindow(t *testing.T) {
	rep := &Replay{Arrivals: []Arrival{
		{At: sim.FromMicros(10)}, {At: sim.FromMicros(20)}, {At: sim.FromMicros(30)},
	}}
	if got := rep.Replayed(sim.FromMicros(25)); got != 2 {
		t.Fatalf("replayed = %d", got)
	}
	if got := rep.Replayed(sim.FromMicros(30)); got != 2 {
		t.Fatalf("replayed at boundary = %d (window is half-open)", got)
	}
	if got := rep.Replayed(sim.FromMicros(1000)); got != 3 {
		t.Fatalf("replayed = %d", got)
	}
}

// TestScheduleSubmitsInWindow drives Schedule on a real engine: submissions
// fire exactly at the bound virtual times, in record order, window-clipped.
func TestScheduleSubmitsInWindow(t *testing.T) {
	eng := sim.NewEngine(1)
	rep := &Replay{Arrivals: []Arrival{
		{At: sim.FromMicros(10), Root: 2, Demand: 0.5},
		{At: sim.FromMicros(10), Root: 4, Demand: 1.5},
		{At: sim.FromMicros(90), Root: 2, Demand: 1},
		{At: sim.FromMicros(150), Root: 2, Demand: 1},
	}}
	type sub struct {
		at     sim.Time
		root   int
		demand float64
	}
	var got []sub
	rep.Schedule(eng, sim.FromMicros(100), func(root int, demand float64) {
		got = append(got, sub{eng.Now(), root, demand})
	})
	eng.RunUntil(sim.FromMicros(1000))
	want := []sub{
		{sim.FromMicros(10), 2, 0.5},
		{sim.FromMicros(10), 4, 1.5},
		{sim.FromMicros(90), 2, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("submissions = %+v, want %+v", got, want)
	}
}
