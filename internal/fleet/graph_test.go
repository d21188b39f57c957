package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"umanycore/internal/machine"
	"umanycore/internal/sim"
	"umanycore/internal/svcgraph"
	"umanycore/internal/workload"
)

// singleSvcApp builds a one-service synthetic app (compute → storage →
// compute, no call edges).
func singleSvcApp(t *testing.T) *workload.App {
	t.Helper()
	app, err := workload.SyntheticApp("exponential", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestGraphColocatedSingleServiceMatchesPlainFleet is the regression anchor:
// a colocated single-service graph adds no cross-server edges and routes
// every root over the full fleet, so its result must be byte-identical (via
// its JSON cell payload) to the plain replicated fleet with
// CrossServerFrac = 0 — same machines, same RNG draws, same arrivals.
func TestGraphColocatedSingleServiceMatchesPlainFleet(t *testing.T) {
	app := singleSvcApp(t)
	rc := machine.RunConfig{Duration: 40 * sim.Millisecond, Warmup: 8 * sim.Millisecond, Drain: 500 * sim.Millisecond}
	for _, lb := range []string{"rr", "least"} {
		plain := DefaultConfig(machine.UManycoreConfig())
		plain.Servers = 4
		plain.LB = lb
		plain.CrossServerFrac = 0

		graph := plain
		graph.Graph = svcgraph.Colocated(len(app.Catalog.Services), plain.Servers)

		encode := func(fc Config) []byte {
			r := Run(fc, app, 24000, rc, 17)
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if p, g := encode(plain), encode(graph); !bytes.Equal(p, g) {
			t.Fatalf("lb=%s: colocated single-service graph diverged from plain fleet:\nplain %s\ngraph %s", lb, p, g)
		}
	}
}

// graphReplayInputs builds the battery's fixture: a synthesized trace round-
// tripped through the wire format, bound to the SocialNetwork catalog, and a
// spread placement so most call edges cross servers.
func graphReplayInputs(t *testing.T) (*workload.App, *svcgraph.Spec, *svcgraph.Replay) {
	t.Helper()
	app := homeT(t)
	var buf bytes.Buffer
	if err := svcgraph.WriteTrace(&buf, svcgraph.Synthesize(9, 400)); err != nil {
		t.Fatal(err)
	}
	tr, err := svcgraph.ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tr.Bind(app, 20000)
	if err != nil {
		t.Fatal(err)
	}
	return app, svcgraph.Spread(len(app.Catalog.Services), 4), rep
}

// TestGraphReplayShardWorkerInvariance is the graph-replay determinism
// battery: a placed service graph replaying an externally round-tripped
// trace through the coupled fleet produces identical results — and
// identical canonical bytes — on a repeat run.
func TestGraphReplayShardWorkerInvariance(t *testing.T) {
	app, spec, rep := graphReplayInputs(t)
	rc := machine.RunConfig{
		Duration: 30 * sim.Millisecond,
		Warmup:   5 * sim.Millisecond,
		Drain:    500 * sim.Millisecond,
		Replay:   rep,
	}
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 4
	fc.LB = "rr"
	fc.Graph = spec

	run := func() (*Result, []byte) {
		r := Run(fc, app, 0, rc, 23)
		stripWall(r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return r, b
	}
	ref, refBytes := run()
	if ref.RemoteServed == 0 {
		t.Fatal("spread placement shipped no cross-server RPCs; battery is vacuous")
	}
	if ref.Submitted == 0 || ref.Submitted != uint64(rep.Replayed(rc.Duration)) {
		t.Fatalf("submitted %d, want the %d in-window trace arrivals", ref.Submitted, rep.Replayed(rc.Duration))
	}
	got, gotBytes := run()
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("replay diverged on a repeat run")
	}
	if !bytes.Equal(refBytes, gotBytes) {
		t.Fatalf("canonical bytes diverged on a repeat run:\nref %s\ngot %s", refBytes, gotBytes)
	}
}

// TestGraphRoutesRootsToHosts checks placement-aware dispatch: with the root
// service pinned to one server, only that server ever submits roots.
func TestGraphRoutesRootsToHosts(t *testing.T) {
	app := homeT(t)
	n := len(app.Catalog.Services)
	spec := svcgraph.Spread(n, 2)
	// Pin the root to server 1 only; spread the rest as usual.
	for svc := range spec.Placement {
		if svc == app.Root {
			spec.Placement[svc] = []int{1}
		}
	}
	// Server 0 must still host something; Spread guarantees it via svc%2==0
	// services other than the root (HomeT's root is not the only even ID).
	rc := machine.RunConfig{Duration: 30 * sim.Millisecond, Warmup: 5 * sim.Millisecond, Drain: 500 * sim.Millisecond}
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 2
	fc.LB = "least"
	fc.Graph = spec
	res := Run(fc, app, 8000, rc, 3)
	if res.PerServer[0].Submitted != 0 {
		t.Fatalf("server 0 submitted %d roots despite not hosting the root service", res.PerServer[0].Submitted)
	}
	if res.PerServer[1].Submitted == 0 {
		t.Fatal("server 1 submitted nothing")
	}
	if res.RemoteServed == 0 {
		t.Fatal("no cross-server edges despite spread placement")
	}
}

// TestGraphValidationPanics pins the fail-fast contract: invalid placements
// and unsupported combinations abort before any simulation runs.
func TestGraphValidationPanics(t *testing.T) {
	app := homeT(t)
	rc := machine.RunConfig{Duration: 10 * sim.Millisecond}
	expectPanic := func(name, want string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				err, isErr := r.(error)
				if !isErr || !strings.Contains(err.Error(), want) {
					t.Fatalf("%s: panic %v, want %q", name, r, want)
				}
			}
		}()
		fn()
	}
	expectPanic("short placement", "placement covers", func() {
		fc := DefaultConfig(machine.UManycoreConfig())
		fc.Servers = 2
		fc.Graph = &svcgraph.Spec{Placement: [][]int{{0}}}
		Run(fc, app, 1000, rc, 1)
	})
	expectPanic("idle server", "hosts no service", func() {
		fc := DefaultConfig(machine.UManycoreConfig())
		fc.Servers = 3
		fc.Graph = svcgraph.Spread(len(app.Catalog.Services), 2)
		Run(fc, app, 1000, rc, 1)
	})
}
