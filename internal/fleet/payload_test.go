package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"umanycore/internal/machine"
	"umanycore/internal/sim"
)

// A fleet Result's cell-cache payload is its encoding/json form. The sweep
// cache accepts a stored payload only if it decodes and the decoded value
// re-encodes to exactly the stored bytes; decodePayload applies that rule.
func decodePayload(b []byte) (*Result, bool) {
	var r *Result
	if json.Unmarshal(b, &r) != nil {
		return nil, false
	}
	enc, err := json.Marshal(r)
	return r, err == nil && bytes.Equal(enc, b)
}

// roundTripPayload encodes r, checks that the payload passes the cache's
// re-encode check and decodes to a value DeepEqual to r, and returns it.
func roundTripPayload(t *testing.T, r *Result) *Result {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := decodePayload(b)
	if !ok {
		t.Fatal("payload of a computed result fails the re-encode check")
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip changed the result:\n cold: %+v\n warm: %+v", r, got)
	}
	return got
}

func TestFleetResultCodecRoundTrip(t *testing.T) {
	fc := DefaultConfig(machine.UManycoreConfig())
	fc.Servers = 2
	rc := machine.RunConfig{Duration: 80 * sim.Millisecond, Warmup: 16 * sim.Millisecond, Drain: sim.Second}
	r := Run(fc, homeT(t), 6000, rc, 3)
	// WallSeconds and Fabric are outside the payload (json:"-"); cached
	// results carry the zero values, so the round-trip fixture does too.
	r.WallSeconds = 0
	r.Fabric = nil
	got := roundTripPayload(t, r)
	if len(got.PerServer) != 2 {
		t.Fatalf("per-server results lost: %d", len(got.PerServer))
	}
}

func TestFleetResultCodecRejects(t *testing.T) {
	for name, b := range map[string]string{
		"truncated":        "{",
		"bad per-server":   `{"PerServer":["nope"]}`,
		"empty object":     `{}`, // decodes to the zero result, which re-encodes differently
		"other struct tag": `{"Retired":1}`,
	} {
		if _, ok := decodePayload([]byte(b)); ok {
			t.Errorf("%s: %q accepted as a fleet result payload", name, b)
		}
	}
}

// TestControlCodecRoundTrip: control stats — shed and reject counters
// included — survive the cell payload, so a warm cache cell reports the
// same goodput as the run that produced it.
func TestControlCodecRoundTrip(t *testing.T) {
	fc := overloadFleet(3)
	fc.Control = fullControl()
	rc := machine.RunConfig{Duration: 40 * sim.Millisecond, Warmup: 8 * sim.Millisecond, Drain: sim.Second}
	r := Run(fc, synthApp(t), 90000, rc, 17)
	if r.Control == nil || r.Control.Rejected == 0 || r.Control.Shed == 0 {
		t.Fatalf("run produced no rejections to round-trip: %+v", r.Control)
	}
	r.WallSeconds = 0
	r.Fabric = nil
	if got := roundTripPayload(t, r); got.Control == nil {
		t.Fatal("decode dropped control stats — cached cells would zero shed counts")
	}
}
