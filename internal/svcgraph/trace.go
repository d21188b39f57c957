package svcgraph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// The external trace wire format is CSV with a fixed header and one record
// per line:
//
//	arrival_us,service,duration_us,cpu_util,rpcs
//	2034.519,HomeT,1785.0,0.1051,27
//
// arrival_us is the absolute arrival time in microseconds from trace start
// (non-decreasing), service names the root service of the request tree,
// duration_us and cpu_util are the record's measured wall time and mean CPU
// utilization (their product is the request's total CPU demand in core-
// microseconds), and rpcs is its RPC fan-out count (informational).

// Header is the wire-format header line (without newline).
const Header = "arrival_us,service,duration_us,cpu_util,rpcs"

const (
	// maxLineBytes bounds a single trace line; longer lines are rejected
	// with a line-numbered error instead of buffering unbounded input.
	maxLineBytes = 64 * 1024
	// maxServiceBytes bounds the service-name field.
	maxServiceBytes = 64
)

// Record is one parsed trace record.
type Record struct {
	// ArrivalMicros is the absolute arrival time in microseconds from trace
	// start.
	ArrivalMicros float64
	// Service is the root service's name.
	Service string
	// DurationMicros is the recorded request duration.
	DurationMicros float64
	// CPUUtil is the recorded mean CPU utilization over that duration, in
	// (0, 1]. DurationMicros × CPUUtil is the request's CPU demand.
	CPUUtil float64
	// RPCs is the recorded RPC fan-out (informational).
	RPCs int
}

// Trace is a parsed external request trace.
type Trace struct {
	Records []Record
}

// SpanMicros is the last record's arrival time — the trace's time span,
// counting from time zero.
func (t *Trace) SpanMicros() float64 {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].ArrivalMicros
}

// MeanRPS is the trace's mean arrival rate over its span, 0 when the span
// is empty.
func (t *Trace) MeanRPS() float64 {
	span := t.SpanMicros()
	if span <= 0 {
		return 0
	}
	return float64(len(t.Records)) * 1e6 / span
}

// ParseTrace reads a trace in the wire format above. It is strict: any
// malformed header, field count, unparsable or non-finite number, negative
// or backwards arrival, non-positive duration, out-of-range utilization,
// negative RPC count, bad service name, over-long line, or empty trace is
// rejected with an error naming the offending line.
func ParseTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("svcgraph: trace line 1: %w", err)
		}
		return nil, errors.New("svcgraph: empty trace (missing header)")
	}
	line := 1
	if h := strings.TrimRight(sc.Text(), "\r"); h != Header {
		return nil, fmt.Errorf("svcgraph: trace line 1: bad header %q (want %q)", h, Header)
	}
	t := &Trace{}
	prev := 0.0
	for sc.Scan() {
		line++
		rec, err := parseRecord(strings.TrimRight(sc.Text(), "\r"), prev)
		if err != nil {
			return nil, fmt.Errorf("svcgraph: trace line %d: %w", line, err)
		}
		prev = rec.ArrivalMicros
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("svcgraph: trace line %d: line exceeds %d bytes", line+1, maxLineBytes)
		}
		return nil, fmt.Errorf("svcgraph: trace line %d: %w", line+1, err)
	}
	if len(t.Records) == 0 {
		return nil, errors.New("svcgraph: trace has a header but no records")
	}
	return t, nil
}

func parseRecord(text string, prevArrival float64) (Record, error) {
	var rec Record
	if text == "" {
		return rec, errors.New("empty line")
	}
	fields := strings.Split(text, ",")
	if len(fields) != 5 {
		return rec, fmt.Errorf("%d fields, want 5", len(fields))
	}
	a, err := parseFloatField(fields[0], "arrival_us")
	if err != nil {
		return rec, err
	}
	if a < 0 {
		return rec, fmt.Errorf("negative arrival_us %q", fields[0])
	}
	if a < prevArrival {
		return rec, fmt.Errorf("arrival_us %q out of order (previous record arrived at %g)", fields[0], prevArrival)
	}
	rec.ArrivalMicros = a
	if err := checkServiceName(fields[1]); err != nil {
		return rec, err
	}
	rec.Service = fields[1]
	d, err := parseFloatField(fields[2], "duration_us")
	if err != nil {
		return rec, err
	}
	if d <= 0 {
		return rec, fmt.Errorf("duration_us %q must be positive", fields[2])
	}
	rec.DurationMicros = d
	u, err := parseFloatField(fields[3], "cpu_util")
	if err != nil {
		return rec, err
	}
	if u <= 0 || u > 1 {
		return rec, fmt.Errorf("cpu_util %q outside (0, 1]", fields[3])
	}
	rec.CPUUtil = u
	n, err := strconv.Atoi(fields[4])
	if err != nil {
		return rec, fmt.Errorf("bad rpcs %q", fields[4])
	}
	if n < 0 {
		return rec, fmt.Errorf("negative rpcs %q", fields[4])
	}
	rec.RPCs = n
	return rec, nil
}

func parseFloatField(s, name string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s %q is not finite", name, s)
	}
	return v, nil
}

func checkServiceName(s string) error {
	if s == "" {
		return errors.New("empty service name")
	}
	if len(s) > maxServiceBytes {
		return fmt.Errorf("service name longer than %d bytes", maxServiceBytes)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("service name %q has invalid byte %q", s, c)
		}
	}
	return nil
}

// WriteTrace emits records in the 5-column wire format: arrivals at
// nanosecond (%.3f µs) precision, durations/utilizations at the historical
// umtrace precision (%.1f / %.4f). The formatting is a fixed point of
// ParseTrace: write → parse → write is byte-stable. Records must carry
// service names; emitting a nameless record would produce an unparseable
// file.
func WriteTrace(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, Header)
	for i, r := range recs {
		if err := checkServiceName(r.Service); err != nil {
			return fmt.Errorf("svcgraph: trace record %d: %w", i+1, err)
		}
		fmt.Fprintf(bw, "%.3f,%s,%.1f,%.4f,%d\n", r.ArrivalMicros, r.Service, r.DurationMicros, r.CPUUtil, r.RPCs)
	}
	return bw.Flush()
}

// Derived-seed salts for the synthesized columns, so the marginal stream
// NewTraceGen(seed) draws is untouched by the extra columns.
const (
	synthLoadSalt    = 7919
	synthArrivalSalt = 104729
)

// Synthesize draws n trace records whose duration/cpu_util/rpcs marginals
// are exactly the stream workload.NewTraceGen(seed).Requests(n) draws, and
// adds the two columns the single-machine generator lacks: a Poisson
// arrival process modulated by the per-second server-load marginal (the
// production trace's diurnal spread), and a root service drawn from the
// SocialNetwork request mix. The added columns use their own derived-seed
// streams, so `umtrace -csv` keeps its historical marginals byte-for-byte.
func Synthesize(seed int64, n int) []Record {
	base := workload.NewTraceGen(seed).Requests(n)
	loadGen := workload.NewTraceGen(sim.DeriveSeed(seed, synthLoadSalt))
	r := rand.New(rand.NewSource(sim.DeriveSeed(seed, synthArrivalSalt)))
	catalog := workload.SocialNetworkCatalog()
	mix := workload.SocialNetworkMix()
	var totalW float64
	for _, e := range mix {
		totalW += e.Weight
	}
	var loads []int
	recs := make([]Record, n)
	tUs := 0.0
	for i, b := range base {
		sec := int(tUs / 1e6)
		for sec >= len(loads) {
			loads = append(loads, loadGen.ServerLoad(64)...)
		}
		rate := float64(loads[sec])
		if rate < 1 {
			rate = 1
		}
		tUs += 1e6 / rate * r.ExpFloat64()
		x := r.Float64() * totalW
		root := mix[len(mix)-1].Root
		for _, e := range mix {
			if x < e.Weight {
				root = e.Root
				break
			}
			x -= e.Weight
		}
		recs[i] = Record{
			ArrivalMicros:  tUs,
			Service:        catalog.Service(root).Name,
			DurationMicros: b.DurationMicros,
			CPUUtil:        b.CPUUtil,
			RPCs:           b.RPCs,
		}
	}
	return recs
}
