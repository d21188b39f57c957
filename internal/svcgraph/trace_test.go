package svcgraph

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"umanycore/internal/workload"
)

const validTrace = Header + "\n" +
	"100.000,a,200.0,0.5000,3\n" +
	"100.000,b.c-d_e,1.5,1.0000,0\n" +
	"250.125,a,3000.0,0.0100,16\n"

func TestParseAccepts(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader(validTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 3 {
		t.Fatalf("trace = %+v", tr)
	}
	r := tr.Records[1]
	if r.ArrivalMicros != 100 || r.Service != "b.c-d_e" || r.DurationMicros != 1.5 || r.CPUUtil != 1 || r.RPCs != 0 {
		t.Fatalf("record = %+v", r)
	}
	if got := tr.SpanMicros(); got != 250.125 {
		t.Fatalf("span = %v", got)
	}
	if got := tr.MeanRPS(); math.Abs(got-3*1e6/250.125) > 1e-9 {
		t.Fatalf("mean rps = %v", got)
	}
}

func TestParseAcceptsCRLF(t *testing.T) {
	in := strings.ReplaceAll(validTrace, "\n", "\r\n")
	tr, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 3 {
		t.Fatalf("records = %d", len(tr.Records))
	}
}

// TestParseRejects is the strictness table: every malformed input is refused
// with an error naming the offending line.
func TestParseRejects(t *testing.T) {
	row := "100.000,a,200.0,0.5000,3\n"
	for _, tc := range []struct{ name, in, want string }{
		{"empty input", "", "empty trace"},
		{"bad header", "time,stuff\n" + row, `line 1: bad header`},
		{"3-column header", "duration_us,cpu_util,rpcs\n1785.0,0.1051,27\n",
			`line 1: bad header "duration_us,cpu_util,rpcs" (want "arrival_us,service,duration_us,cpu_util,rpcs")`},
		{"header only", Header + "\n", "no records"},
		{"empty line", Header + "\n" + row + "\n", "line 3: empty line"},
		{"too few fields", Header + "\n1,a,2\n", "line 2: 3 fields, want 5"},
		{"too many fields", Header + "\n1,a,2,0.5,3,9\n", "line 2: 6 fields, want 5"},
		{"bad arrival", Header + "\nxx,a,2,0.5,3\n", `bad arrival_us "xx"`},
		{"NaN arrival", Header + "\nNaN,a,2,0.5,3\n", `arrival_us "NaN" is not finite`},
		{"Inf duration", Header + "\n1,a,+Inf,0.5,3\n", `duration_us "+Inf" is not finite`},
		{"negative arrival", Header + "\n-5,a,2,0.5,3\n", `negative arrival_us "-5"`},
		{"out of order", Header + "\n100,a,2,0.5,3\n99.9,a,2,0.5,3\n",
			`line 3: arrival_us "99.9" out of order (previous record arrived at 100)`},
		{"zero duration", Header + "\n1,a,0,0.5,3\n", `duration_us "0" must be positive`},
		{"negative duration", Header + "\n1,a,-2,0.5,3\n", `duration_us "-2" must be positive`},
		{"zero util", Header + "\n1,a,2,0,3\n", `cpu_util "0" outside (0, 1]`},
		{"util above one", Header + "\n1,a,2,1.1,3\n", `cpu_util "1.1" outside (0, 1]`},
		{"NaN util", Header + "\n1,a,2,NaN,3\n", `cpu_util "NaN" is not finite`},
		{"bad rpcs", Header + "\n1,a,2,0.5,x\n", `bad rpcs "x"`},
		{"float rpcs", Header + "\n1,a,2,0.5,3.5\n", `bad rpcs "3.5"`},
		{"negative rpcs", Header + "\n1,a,2,0.5,-3\n", `negative rpcs "-3"`},
		{"empty service", Header + "\n1,,2,0.5,3\n", "empty service name"},
		{"bad service byte", Header + "\n1,a b,2,0.5,3\n", `service name "a b" has invalid byte`},
		{"long service", Header + "\n1," + strings.Repeat("s", 65) + ",2,0.5,3\n",
			"service name longer than 64 bytes"},
		{"huge line", Header + "\n" + strings.Repeat("9", maxLineBytes+1) + ",a,2,0.5,3\n",
			"line exceeds 65536 bytes"},
	} {
		_, err := ParseTrace(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestWriteParseFixedPoint pins the wire format as a fixed point: a written
// trace parses back, and re-writing the parsed records reproduces the bytes.
func TestWriteParseFixedPoint(t *testing.T) {
	recs := Synthesize(3, 200)
	var first bytes.Buffer
	if err := WriteTrace(&first, recs); err != nil {
		t.Fatal(err)
	}
	tr, err := ParseTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("written trace does not parse: %v", err)
	}
	if len(tr.Records) != len(recs) {
		t.Fatalf("parsed %d records, wrote %d", len(tr.Records), len(recs))
	}
	var second bytes.Buffer
	if err := WriteTrace(&second, tr.Records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("write -> parse -> write is not byte-stable")
	}
}

func TestWriteRejectsNamelessRecord(t *testing.T) {
	err := WriteTrace(&bytes.Buffer{}, []Record{{DurationMicros: 1, CPUUtil: 0.5}})
	if err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("error = %v", err)
	}
}

// TestGoldenFixture pins the synthesized wire format byte for byte against
// the checked-in fixture (the same bytes umtrace -requests 5 -csv emits).
func TestGoldenFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteTrace(&got, Synthesize(1, 5)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("synthesized trace drifted from testdata/golden.csv:\ngot:\n%swant:\n%s", got.Bytes(), want)
	}
}

// TestSynthesizeMarginals is the round-trip property on the generator side:
// the duration/cpu_util/rpcs columns are exactly the historical
// workload.NewTraceGen stream, arrivals are non-decreasing from a positive
// start, and every service names a SocialNetwork mix root.
func TestSynthesizeMarginals(t *testing.T) {
	const n = 500
	recs := Synthesize(7, n)
	base := workload.NewTraceGen(7).Requests(n)
	if len(recs) != n {
		t.Fatalf("records = %d", len(recs))
	}
	roots := map[string]bool{}
	catalog := workload.SocialNetworkCatalog()
	for _, e := range workload.SocialNetworkMix() {
		roots[catalog.Service(e.Root).Name] = true
	}
	prev := 0.0
	for i, r := range recs {
		if r.DurationMicros != base[i].DurationMicros || r.CPUUtil != base[i].CPUUtil || r.RPCs != base[i].RPCs {
			t.Fatalf("record %d marginals drifted: %+v vs %+v", i, r, base[i])
		}
		if r.ArrivalMicros <= prev {
			t.Fatalf("record %d arrival %g not after %g", i, r.ArrivalMicros, prev)
		}
		prev = r.ArrivalMicros
		if !roots[r.Service] {
			t.Fatalf("record %d service %q is not a mix root", i, r.Service)
		}
	}
}
