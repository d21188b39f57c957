// Command umtrace generates and analyzes Alibaba-like production traces —
// the §3 characterization inputs (Figs 2, 4, 5). It can emit raw records as
// CSV or print the marginal statistics the paper reports.
//
// -csv emits the replayable wire format (see internal/svcgraph):
//
//	arrival_us,service,duration_us,cpu_util,rpcs
//
// with arrivals from a load-marginal-modulated Poisson process and root
// services from the SocialNetwork request mix, so
// `umtrace -csv > t.csv && umprof -trace t.csv` replays a synthesized
// production trace through any simulated architecture.
//
// Data outputs (-csv, -load-cdf) go to stdout; the statistics report goes to
// stderr, so `umtrace -csv > trace.csv` never mixes the two. A data flag
// implies -stats=false unless -stats is given explicitly, in which case both
// are emitted (CSV on stdout, stats on stderr) from the same record draw.
//
// Examples:
//
//	umtrace -requests 100000
//	umtrace -requests 10000 -csv > trace.csv
//	umtrace -requests 10000 -csv -stats > trace.csv   # stats on stderr too
//	umtrace -servers 1000 -seconds 60 -load-cdf
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"umanycore/internal/stats"
	"umanycore/internal/svcgraph"
	"umanycore/internal/workload"
)

func main() {
	n := flag.Int("requests", 50000, "number of request records to draw")
	servers := flag.Int("servers", 100, "servers for the load CDF")
	seconds := flag.Int("seconds", 100, "seconds of load per server")
	seed := flag.Int64("seed", 1, "generator seed")
	csv := flag.Bool("csv", false, "emit request records as CSV on stdout")
	loadCDF := flag.Bool("load-cdf", false, "emit the per-second RPS CDF (Fig 2) on stdout")
	showStats := flag.Bool("stats", true, "print marginal statistics on stderr")
	flag.Parse()
	if flag.NArg() > 0 {
		// Flag parsing stops at the first non-flag: refuse the rest rather
		// than drop it.
		fmt.Fprintf(os.Stderr, "umtrace: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	// Data outputs default the stats report off; an explicit -stats keeps it.
	statsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "stats" {
			statsSet = true
		}
	})
	if (*csv || *loadCDF) && !statsSet {
		*showStats = false
	}

	g := workload.NewTraceGen(*seed)
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	// One draw feeds both the CSV and the stats, so adding -stats to a -csv
	// invocation reports on exactly the emitted records. The marginal
	// columns (duration/cpu_util/rpcs) are the historical Requests stream;
	// arrivals and services come from their own derived-seed streams (see
	// svcgraph.Synthesize), so the reported marginals are unchanged.
	var recs []svcgraph.Record
	if *csv || *showStats {
		recs = svcgraph.Synthesize(*seed, *n)
	}

	if *csv {
		if err := svcgraph.WriteTrace(w, recs); err != nil {
			fmt.Fprintln(os.Stderr, "umtrace:", err)
			os.Exit(1)
		}
	}

	if *loadCDF {
		var s stats.Sample
		for i := 0; i < *servers; i++ {
			for _, c := range g.ServerLoad(*seconds) {
				s.Add(float64(c))
			}
		}
		fmt.Fprintln(w, "rps,cdf")
		for x := 0.0; x <= 2000; x += 50 {
			fmt.Fprintf(w, "%.0f,%.4f\n", x, s.CDFAt(x))
		}
	}

	if *showStats {
		e := bufio.NewWriter(os.Stderr)
		defer e.Flush()
		var dur, util, rpcs stats.Sample
		short := 0
		var longDur []float64
		for _, r := range recs {
			dur.Add(r.DurationMicros)
			util.Add(r.CPUUtil)
			rpcs.Add(float64(r.RPCs))
			if r.DurationMicros < 1000 {
				short++
			} else {
				longDur = append(longDur, r.DurationMicros)
			}
		}
		fmt.Fprintf(e, "records                 : %d\n", *n)
		fmt.Fprintf(e, "duration <1ms           : %.1f%% (paper: 36.7%%)\n", 100*float64(short)/float64(*n))
		fmt.Fprintf(e, "geomean long duration   : %.2fms (paper: 2.8ms)\n", stats.GeoMean(longDur)/1000)
		fmt.Fprintf(e, "median CPU utilization  : %.3f (paper: ~0.14)\n", util.Median())
		fmt.Fprintf(e, "P99 CPU utilization     : %.3f (paper: <0.60)\n", util.P99())
		fmt.Fprintf(e, "median RPCs per request : %.1f (paper: ~4.2)\n", rpcs.Median())
		fmt.Fprintf(e, "frac with >=16 RPCs     : %.1f%% (paper: ~5%%)\n", 100*rpcs.FracAtLeast(16))

		var load stats.Sample
		for i := 0; i < *servers; i++ {
			for _, c := range g.ServerLoad(*seconds) {
				load.Add(float64(c))
			}
		}
		fmt.Fprintf(e, "median server RPS       : %.0f (paper: ~500)\n", load.Median())
		fmt.Fprintf(e, "frac seconds >=1000 RPS : %.1f%% (paper: ~20%%)\n", 100*load.FracAtLeast(1000))
		fmt.Fprintf(e, "frac seconds >=1500 RPS : %.1f%% (paper: ~5%%)\n", 100*load.FracAtLeast(1500))
	}
}
