package cli

import "testing"

// TestEtaSeconds pins the cached-aware ETA weighting: cache hits complete in
// microseconds and must not dilute the per-cell rate estimate.
func TestEtaSeconds(t *testing.T) {
	cases := []struct {
		name                string
		done, cached, total int64
		elapsed             float64
		want                float64
	}{
		// 10 computed cells took 100s -> 10 s/cell; 10 remain -> 100s.
		{"no cache traffic", 10, 0, 20, 100, 100},
		// Same wall time, but half the finished cells were cache hits: only
		// 5 cells were computed, so the rate is 20 s/cell -> 200s remaining.
		// The naive elapsed/done estimate would say 100s and be 2x off.
		{"half cached", 10, 5, 20, 100, 200},
		// All finished cells were hits: no computed-cell rate yet -> unknown.
		{"all cached so far", 10, 10, 20, 0.5, -1},
		{"nothing done", 0, 0, 20, 5, -1},
		{"complete", 20, 3, 20, 100, 0},
		{"overcomplete guard", 25, 0, 20, 100, 0},
		{"no jobs scheduled", 0, 0, 0, 1, -1},
	}
	for _, c := range cases {
		if got := etaSeconds(c.done, c.cached, c.total, c.elapsed); got != c.want {
			t.Errorf("%s: etaSeconds(%d, %d, %d, %g) = %g, want %g",
				c.name, c.done, c.cached, c.total, c.elapsed, got, c.want)
		}
	}
}
