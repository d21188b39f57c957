package svcgraph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseTrace drives the strict parser with arbitrary bytes. Invariants:
// never panic, errors carry the "svcgraph: trace line" prefix with a line
// number, and any input that parses survives a write → parse round trip with
// identical record values (the 5-column format) — the property the golden
// fixture pins for the synthesized stream.
func FuzzParseTrace(f *testing.F) {
	f.Add("")
	f.Add(Header + "\n")
	f.Add(validTrace)
	f.Add(strings.ReplaceAll(validTrace, "\n", "\r\n"))
	f.Add("duration_us,cpu_util,rpcs\n1785.0,0.1051,27\n") // a 3-column header
	// Malformed rows.
	f.Add(Header + "\n1,a\n")
	f.Add(Header + "\n1,a,2,0.5,3,9\n")
	f.Add(Header + "\nxx,a,2,0.5,3\n")
	// Non-finite and negative demands.
	f.Add(Header + "\nNaN,a,2,0.5,3\n")
	f.Add(Header + "\n1,a,-2,0.5,3\n")
	f.Add(Header + "\n1,a,2,-0.5,3\n")
	f.Add(Header + "\n1,a,+Inf,0.5,3\n")
	f.Add(Header + "\n-1785.0,a,2,0.5,3\n")
	// Out-of-order arrivals.
	f.Add(Header + "\n100,a,2,0.5,3\n99,a,2,0.5,3\n")
	// Huge fields and odd bytes.
	f.Add(Header + "\n1," + strings.Repeat("s", 100) + ",2,0.5,3\n")
	f.Add(Header + "\n1e308,a,2e308,0.5,3\n")
	f.Add(Header + "\n1,a,2,0.5,99999999999999999999\n")
	f.Add(Header + "\n1,\x00\xff,2,0.5,3\n")
	f.Add("\x00\x01\x02")

	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ParseTrace(strings.NewReader(in))
		if err != nil {
			if tr != nil {
				t.Fatalf("non-nil trace alongside error %v", err)
			}
			msg := err.Error()
			if !strings.HasPrefix(msg, "svcgraph: ") {
				t.Fatalf("error without package prefix: %q", msg)
			}
			return
		}
		if len(tr.Records) == 0 {
			t.Fatal("successful parse with zero records")
		}
		for _, r := range tr.Records {
			// The writer's fixed precision (%.1f / %.4f) would round these
			// to an unparseable zero; the round-trip property only holds for
			// values the wire format can represent.
			if r.DurationMicros < 0.05 || r.CPUUtil < 0.00005 {
				return
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr.Records); err != nil {
			t.Fatalf("parsed trace does not re-write: %v", err)
		}
		back, err := ParseTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-written trace does not re-parse: %v", err)
		}
		if len(back.Records) != len(tr.Records) {
			t.Fatalf("round trip lost records: %d -> %d", len(tr.Records), len(back.Records))
		}
		for i := range back.Records {
			if back.Records[i].Service != tr.Records[i].Service || back.Records[i].RPCs != tr.Records[i].RPCs {
				t.Fatalf("record %d drifted: %+v -> %+v", i, tr.Records[i], back.Records[i])
			}
		}
	})
}
