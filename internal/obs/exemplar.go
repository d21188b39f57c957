package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"

	"umanycore/internal/sim"
)

// Exemplar is one of the K slowest request trees of a run: the stitched
// tree's spans plus the root identity, the concrete artifact behind a tail
// percentile ("show me the requests that made p99 what it is").
type Exemplar struct {
	// Req is the root request's (merged) invocation ID.
	Req uint64
	// SvcID is the root service (request type).
	SvcID int16
	// Latency is the end-to-end latency (root span length).
	Latency sim.Time
	// Servers counts the distinct servers the tree's spans ran on.
	Servers int
	// Spans is the tree in recording (span ID) order — for stitched trees,
	// caller-side spans and peer-side subtrees interleaved by merge order.
	Spans []Span
}

// Exemplars selects the k slowest finished, clean request trees from spans,
// slowest first. Selection ranks by root span length with request-ID
// tie-breaks — virtual time only, so on merged fleet traces the choice is
// bit-identical run to run. Open or rejected trees are excluded, like Analyze's.
func Exemplars(spans []Span, k int) []Exemplar {
	if k <= 0 {
		return nil
	}
	var roots []int
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 && s.Stage == StageRequest && s.End > s.Start && s.Flags == 0 {
			roots = append(roots, i)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	sort.Slice(roots, func(a, b int) bool {
		ra, rb := &spans[roots[a]], &spans[roots[b]]
		da, db := ra.Dur(), rb.Dur()
		if da != db {
			return da > db
		}
		return ra.Req < rb.Req
	})
	if k > len(roots) {
		k = len(roots)
	}
	out := make([]Exemplar, k)
	pick := make(map[uint64]int, k) // root Req -> exemplar index
	for i, ri := range roots[:k] {
		root := &spans[ri]
		out[i] = Exemplar{Req: root.Req, SvcID: root.SvcID, Latency: root.Dur()}
		pick[root.Req] = i
	}
	// One pass groups every span into its root's tree: after stitching, all
	// spans of a cross-server tree share the root's Req.
	for i := range spans {
		if xi, ok := pick[spans[i].Req]; ok {
			out[xi].Spans = append(out[xi].Spans, spans[i])
		}
	}
	for i := range out {
		seen := make(map[int32]bool, 4)
		for j := range out[i].Spans {
			seen[out[i].Spans[j].Server] = true
		}
		out[i].Servers = len(seen)
	}
	return out
}

// WriteExemplarsJSON emits exemplars as one deterministic JSON object:
//
//	{"k":N,"exemplars":[{"req":..,"svc":..,"latency_us":..,"servers":..,
//	  "spans":[{"span":..,"parent":..,"stage":"..","svc":..,"core":..,
//	            "server":..,"link":..,"start_us":..,"end_us":..,
//	            "retries":..,"flags":..},...]},...]}
//
// Times are virtual microseconds at fixed three-decimal precision, so the
// bytes are identical across repetitions and worker counts — ci.sh compares
// the file across repeated fleet runs.
func WriteExemplarsJSON(w io.Writer, xs []Exemplar) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"k":`)
	bw.Write(strconv.AppendInt(nil, int64(len(xs)), 10))
	bw.WriteString(`,"exemplars":[`)
	var buf []byte
	for i := range xs {
		x := &xs[i]
		if i > 0 {
			bw.WriteByte(',')
		}
		buf = buf[:0]
		buf = append(buf, `{"req":`...)
		buf = strconv.AppendUint(buf, x.Req, 10)
		buf = append(buf, `,"svc":`...)
		buf = strconv.AppendInt(buf, int64(x.SvcID), 10)
		buf = append(buf, `,"latency_us":`...)
		buf = appendMicros(buf, x.Latency.Micros())
		buf = append(buf, `,"servers":`...)
		buf = strconv.AppendInt(buf, int64(x.Servers), 10)
		buf = append(buf, `,"spans":[`...)
		bw.Write(buf)
		for j := range x.Spans {
			s := &x.Spans[j]
			buf = buf[:0]
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"span":`...)
			buf = strconv.AppendUint(buf, s.ID, 10)
			buf = append(buf, `,"parent":`...)
			buf = strconv.AppendUint(buf, s.Parent, 10)
			buf = append(buf, `,"stage":"`...)
			buf = append(buf, s.Stage.String()...)
			buf = append(buf, `","svc":`...)
			buf = strconv.AppendInt(buf, int64(s.SvcID), 10)
			buf = append(buf, `,"core":`...)
			buf = strconv.AppendInt(buf, int64(s.Core), 10)
			buf = append(buf, `,"server":`...)
			buf = strconv.AppendInt(buf, int64(s.Server), 10)
			buf = append(buf, `,"link":`...)
			buf = strconv.AppendUint(buf, s.Link, 10)
			buf = append(buf, `,"start_us":`...)
			buf = appendMicros(buf, float64(s.Start)/1e6)
			buf = append(buf, `,"end_us":`...)
			var end float64
			if s.End > s.Start {
				end = float64(s.End) / 1e6
			}
			buf = appendMicros(buf, end)
			buf = append(buf, `,"retries":`...)
			buf = strconv.AppendUint(buf, uint64(s.Retries), 10)
			buf = append(buf, `,"flags":`...)
			buf = strconv.AppendUint(buf, uint64(s.Flags), 10)
			buf = append(buf, '}')
			bw.Write(buf)
		}
		bw.WriteString(`]}`)
	}
	bw.WriteString(`]}`)
	return bw.Flush()
}

// ExemplarSpans concatenates the exemplars' spans (slowest tree first) —
// the input for a Perfetto trace restricted to the tail exemplars.
func ExemplarSpans(xs []Exemplar) []Span {
	n := 0
	for i := range xs {
		n += len(xs[i].Spans)
	}
	out := make([]Span, 0, n)
	for i := range xs {
		out = append(out, xs[i].Spans...)
	}
	return out
}
