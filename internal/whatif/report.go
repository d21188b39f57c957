package whatif

import (
	"fmt"
	"io"
	"strconv"

	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/stats"
)

// WriteTable prints the what-if grid: one row per (stage, factor) with the
// paired-seed latency deltas, the stage's descriptive blame share next to
// its actual p99 payoff, and the top critical-path migration the speedup
// caused. Blame% is constant down each stage block (it is a property of
// the baseline); payoff% is what the virtual speedup really bought — the
// two columns disagreeing is the point of the exercise.
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "what-if causal profile: machine=%s app=%s rps=%g", r.Machine, r.App, r.RPS)
	if r.Servers > 0 {
		fmt.Fprintf(w, " servers=%d", r.Servers)
	}
	fmt.Fprintf(w, " seed=%d (top %g%% tail)\n", r.Seed, 100*r.TopFrac)
	fmt.Fprintf(w, "baseline: n=%d mean=%.2f p50=%.2f p99=%.2f p99.9=%.2f max=%.2f [us]\n",
		r.Baseline.Latency.N, r.Baseline.Latency.Mean, r.Baseline.Latency.Median,
		r.Baseline.Latency.P99, r.Baseline.P999US, r.Baseline.Latency.Max)
	fmt.Fprintf(w, "%-10s %6s %11s %11s %11s %11s %7s %8s  %s\n",
		"stage", "factor", "dmean[us]", "dp50[us]", "dp99[us]", "dp99.9[us]",
		"blame%", "payoff%", "top migration")
	var prev string
	for _, row := range r.Rows {
		name := row.Stage.String()
		if name == prev {
			name = ""
		} else {
			prev = name
		}
		mig := "-"
		if movers := row.Diff.TopMovers(1); len(movers) > 0 && movers[0].DeltaShare != 0 {
			mig = fmt.Sprintf("%s %+.1fpp", movers[0].Stage, 100*movers[0].DeltaShare)
		}
		fmt.Fprintf(w, "%-10s %6.2f %+11.2f %+11.2f %+11.2f %+11.2f %6.1f%% %7.1f%%  %s\n",
			name, row.Factor, row.DMeanUS, row.DP50US, row.DP99US, row.DP999US,
			100*row.BlameShare, 100*row.PayoffP99, mig)
	}
}

// WriteJSON emits the report as one deterministic JSON object (fixed field
// order, shortest-exact floats) followed by a newline. Per-row critical-path
// migration is reduced to the three largest share movers.
func (r *Report) WriteJSON(w io.Writer) error {
	var o stats.JSONObject
	o.Str("machine", r.Machine).
		Str("app", r.App).
		Float("rps", r.RPS).
		Int("servers", int64(r.Servers)).
		Int("seed", r.Seed).
		Float("top_frac", r.TopFrac).
		FloatArr("factors", r.Factors)
	o.Raw("baseline", encodeCell(r.Baseline))
	rows := make([][]byte, len(r.Rows))
	for i, row := range r.Rows {
		var ro stats.JSONObject
		ro.Str("stage", row.Stage.String()).
			Float("factor", row.Factor).
			Raw("cell", encodeCell(row.Cell)).
			Float("d_mean_us", row.DMeanUS).
			Float("d_p50_us", row.DP50US).
			Float("d_p99_us", row.DP99US).
			Float("d_p999_us", row.DP999US).
			Float("blame_share", row.BlameShare).
			Float("payoff_p99", row.PayoffP99)
		movers := row.Diff.TopMovers(3)
		migs := make([][]byte, len(movers))
		for j, mv := range movers {
			var mo stats.JSONObject
			mo.Str("stage", mv.Stage.String()).
				Float("base_share", mv.BaseShare).
				Float("variant_share", mv.VariantShare).
				Float("d_share", mv.DeltaShare).
				Float("d_us", mv.DeltaUS)
			migs[j] = mo.Bytes()
		}
		ro.RawArr("migration", migs)
		rows[i] = ro.Bytes()
	}
	o.RawArr("rows", rows)
	if _, err := w.Write(o.Bytes()); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// encodeCell renders one cell of the -json report: fixed field order,
// shortest-exact floats, picosecond blame tallies as integers. A nil
// ByServerStage (single-machine trace) omits its key.
func encodeCell(c Cell) []byte {
	var o stats.JSONObject
	lat, _ := c.Latency.MarshalJSON()
	o.Raw("latency", lat).
		Float("p999", c.P999US).
		Obj("blame", func(b *stats.JSONObject) {
			b.Float("top_frac", c.Blame.TopFrac).
				Int("total", int64(c.Blame.Total)).
				Int("analyzed", int64(c.Blame.Analyzed)).
				Int("cutoff_ps", int64(c.Blame.Cutoff)).
				Int("p99_ps", int64(c.Blame.P99)).
				Int("total_ps", int64(c.Blame.TotalLatency)).
				Raw("by_stage_ps", stageArr(c.Blame.ByStage))
			if c.Blame.ByServerStage != nil {
				rows := make([][]byte, len(c.Blame.ByServerStage))
				for i, row := range c.Blame.ByServerStage {
					rows[i] = stageArr(row)
				}
				b.RawArr("by_server_stage_ps", rows)
			}
		})
	return o.Bytes()
}

// stageArr renders a per-stage picosecond vector as a raw JSON int array.
func stageArr(v [obs.NumStages]sim.Time) []byte {
	buf := []byte{'['}
	for i, t := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(t), 10)
	}
	return append(buf, ']')
}
