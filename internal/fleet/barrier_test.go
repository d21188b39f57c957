package fleet

import (
	"encoding/json"
	"fmt"
	"testing"

	"umanycore/internal/machine"
	"umanycore/internal/sim"
)

// TestBarrierViewCountsRejectedRoots pins a p2c fleet whose servers turn
// roots away at admission. The balancer routes on routed minus answered
// roots per server, snapshotted at window barriers, and an admission reject
// answers a root just as a completion does. A reject the dispatcher never
// learns of leaves that server looking busier than it is and moves the
// routing, so the per-server counts and the fleet latency below drift. The
// numbers were recorded when the barrier read each server's completed and
// rejected root counters directly.
func TestBarrierViewCountsRejectedRoots(t *testing.T) {
	fc := overloadFleet(3)
	fc.LB = "p2c"
	rc := machine.RunConfig{Duration: 20 * sim.Millisecond, Warmup: 4 * sim.Millisecond, Drain: 500 * sim.Millisecond}
	r := Run(fc, synthApp(t), 50000, rc, 7)

	var rejectedRoots uint64
	var got string
	for s, res := range r.PerServer {
		if res.Unfinished != 0 {
			t.Fatalf("server %d: %d roots unfinished after drain", s, res.Unfinished)
		}
		rejectedRoots += res.Submitted - res.Completed
		got += fmt.Sprintf("[%d %d %d] ", res.Submitted, res.Completed, res.Rejected)
	}
	if r.Rejected == 0 || rejectedRoots == 0 {
		t.Fatalf("no root rejected at admission (Rejected %d, rejected roots %d): the reject path is not exercised", r.Rejected, rejectedRoots)
	}
	lat, err := json.Marshal(r.Latency)
	if err != nil {
		t.Fatal(err)
	}
	got += string(lat)
	const want = "" +
		"[340 257 83] [361 248 113] [330 252 78] " +
		`{"n":586,"mean":1138.8056222047783,"p50":1136.112042,"p99":1619.354325,"max":1845.929113}`
	if got != want {
		t.Errorf("per-server [submitted completed rejected] and latency\n got %s\nwant %s", got, want)
	}
}
