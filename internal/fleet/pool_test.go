package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"umanycore/internal/machine"
	"umanycore/internal/sim"
)

// TestConcurrentCoupledRunsIndependent: coupled runs take their engine and
// their servers' stream bundles from a pool that concurrent sweep workers
// share. Fleets of different sizes and seeds, run several at once and
// twice over (so pooled state passes between sizes), must each reproduce
// their sequential reference exactly: every JSON-encoded statistic and the
// fabric's counters.
func TestConcurrentCoupledRunsIndependent(t *testing.T) {
	app := homeT(t)
	rc := machine.RunConfig{Duration: 10 * sim.Millisecond, Warmup: 2 * sim.Millisecond, Drain: 100 * sim.Millisecond}
	type cell struct {
		servers int
		seed    int64
	}
	cells := []cell{{2, 1}, {3, 2}, {4, 1}}
	run := func(c cell) ([]byte, *Result) {
		fc := DefaultConfig(machine.UManycoreConfig())
		fc.Servers = c.servers
		fc.LB = "p2c"
		r := Run(fc, app, float64(c.servers)*5000, rc, c.seed)
		b, err := json.Marshal(r)
		if err != nil {
			t.Error(err)
		}
		return b, r
	}
	wantJSON := make([][]byte, len(cells))
	want := make([]*Result, len(cells))
	for i, c := range cells {
		wantJSON[i], want[i] = run(c)
		if want[i].RemoteServed == 0 {
			t.Fatalf("cell %+v made no cross-server calls", c)
		}
	}
	for round := range 2 {
		gotJSON := make([][]byte, 2*len(cells))
		got := make([]*Result, len(gotJSON))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gotJSON[i], got[i] = run(cells[i%len(cells)])
			}()
		}
		wg.Wait()
		for i := range got {
			w := i % len(cells)
			if !bytes.Equal(gotJSON[i], wantJSON[w]) || !reflect.DeepEqual(got[i].Fabric, want[w].Fabric) {
				t.Fatalf("round %d: concurrent run %d (%+v) diverged from its sequential reference", round, i, cells[w])
			}
		}
	}
}
