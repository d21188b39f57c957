package machine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// A Result's cell-cache payload is its encoding/json form. The sweep cache
// accepts a stored payload only if it decodes and the decoded value
// re-encodes to exactly the stored bytes; decodePayload applies that rule.
func decodePayload(b []byte) (*Result, bool) {
	var r *Result
	if json.Unmarshal(b, &r) != nil {
		return nil, false
	}
	enc, err := json.Marshal(r)
	return r, err == nil && bytes.Equal(enc, b)
}

// codecRun produces a small but fully populated result (mixed load, so
// PerRoot and the sample are non-trivial).
func codecRun(t *testing.T) *Result {
	t.Helper()
	return Run(UManycoreConfig(), RunConfig{
		App:      workload.SocialNetworkApps()[0],
		Mix:      workload.SocialNetworkMix(),
		RPS:      4000,
		Duration: 100 * sim.Millisecond,
		Warmup:   20 * sim.Millisecond,
		Drain:    sim.Second,
		Seed:     11,
	})
}

func TestResultCodecRoundTrip(t *testing.T) {
	r := codecRun(t)
	if r.Sample == nil || r.Sample.N() == 0 || len(r.PerRoot) < 2 {
		t.Fatalf("run left the sample or per-root summaries empty: %+v", r)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded result must be indistinguishable from the computed one —
	// warm figure tables read the same numbers as cold ones — and must pass
	// the cache's re-encode check.
	got, ok := decodePayload(b)
	if !ok {
		t.Fatal("payload of a computed result fails the re-encode check")
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip changed the result:\n cold: %+v\n warm: %+v", r, got)
	}
	if got.Sample.Sum() != r.Sample.Sum() {
		t.Fatalf("sample sum drifted: %v vs %v", got.Sample.Sum(), r.Sample.Sum())
	}
}

func TestResultCodecRejectsGarbage(t *testing.T) {
	for name, b := range map[string]string{
		"not json":      "not json",
		"bad per-root":  `{"PerRoot":{"not-a-number":{}}}`,
		"empty object":  `{}`, // decodes to the zero result, which re-encodes differently
		"unknown field": `{"Retired":1}`,
	} {
		if _, ok := decodePayload([]byte(b)); ok {
			t.Errorf("%s: %q accepted as a result payload", name, b)
		}
	}
}
