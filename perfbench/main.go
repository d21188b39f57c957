// Command perfbench times one of the simulator's fixed benchmark jobs in a
// closed loop: one pass of the job after another, each checked against the
// recorded hash of its simulated statistics. run.py builds and drives it;
// see README.md.
//
//	perfbench -workload server -seed 1 -seconds 10            # timed passes
//	perfbench -workload server -seed 1 -seconds 10 -trace     # per-layer run
//	perfbench -workload server -seed 1 -setup-only            # set-up time
//	perfbench -record reference.json                          # new references
//
// It prints one JSON object as its last line; run.py turns it into the
// benchmark's result.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"umanycore"
)

// processStart approximates the process's start for a run that was not
// told when its parent spawned it.
var processStart = time.Now()

//go:embed reference.json
var referenceJSON []byte

// machineSetupSamples is how many NewMix calls the traced run times for
// machine.setup_s; hostCalibrations how many calibration kernels it times
// for host.calib_s.
const (
	machineSetupSamples = 7
	hostCalibrations    = 9
)

// recordedSeeds is how many seeds, from 0, reference.json holds a hash for.
const recordedSeeds = 21

// calibrationShare is the least share of a pass's host time spent timing
// the calibration kernel after it.
const calibrationShare = 0.05

// report is the raw result run.py reads.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	SetupS    float64            `json:"setup_s"`
	WallS     []float64          `json:"wall_s,omitempty"`
	WallCal   []float64          `json:"wall_cal,omitempty"`
	CalibS    []float64          `json:"calib_s,omitempty"`
	TracedS   []float64          `json:"traced_s,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Hash      string             `json:"hash,omitempty"`
	Reference string             `json:"reference,omitempty"`
	SimP99    float64            `json:"sim_p99_us,omitempty"`
	PeakRSSMB float64            `json:"peak_rss_mb,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Absent    map[string]string  `json:"absent,omitempty"`
	Profile   string             `json:"profile,omitempty"`
	Spans     string             `json:"spans,omitempty"`
	GoVersion string             `json:"go_version"`
	MaxProcs  int                `json:"gomaxprocs"`
	NumCPU    int                `json:"nproc"`
}

func main() {
	name := flag.String("workload", "", "workload: server, fleet16 or figures")
	seed := flag.Int64("seed", 1, "seed every simulated input is made from")
	seconds := flag.Float64("seconds", 10, "host seconds of passes to run (at least one pass)")
	traced := flag.Bool("trace", false, "run the per-layer traced run instead of the timed passes")
	setupOnly := flag.Bool("setup-only", false, "time the set-up phase and exit")
	spawnNS := flag.Int64("spawn-ns", 0, "Unix ns at which the parent started this process (0: measure from init)")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the CPU profile and the span dump")
	record := flag.String("record", "", "write the reference hashes of seeds 0 to recordedSeeds-1 to this file and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *record != "" {
		fail(recordReferences(*record))
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive, got %v", *seconds))
	}
	start := processStart
	if *spawnNS > 0 {
		start = time.Unix(0, *spawnNS)
	}
	refs, err := loadReferences()
	if err != nil {
		fail(err)
	}
	rep := &report{
		Workload: w.name, Seed: *seed, GoVersion: runtime.Version(),
		MaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	var tr *tracer
	if *traced {
		tr = newTracer()
	}
	j := w.build(*seed, tr)
	rep.SetupS = time.Since(start).Seconds()
	if *setupOnly {
		// Time the host's speed right after set-up, so run.py can
		// express set-up time at a reference speed.
		rep.CalibS = []float64{calibrate(1)}
	} else {
		b := &bench{rep: rep, job: j, want: refs[w.name][strconv.FormatInt(*seed, 10)]}
		if *traced {
			err = b.tracedRun(w, tr, *seconds, *outDir)
		} else {
			err = b.timedRun(*seconds)
		}
		if err != nil {
			fail(err)
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// bench runs passes of one job and accounts for their checks.
type bench struct {
	rep    *report
	job    *job
	want   string // recorded reference hash; empty when none exists
	shared string // the first pass's outcome.shared
}

// check counts one pass as attempted and, if its output is wrong, failed.
// The first pass's hash is the run's hash: it must match the reference
// when one is recorded, and every later pass must match it (only in the
// statistics every execution mode computes, when shared is set).
func (b *bench) check(what string, o outcome, shared bool) {
	b.rep.Attempted++
	errs := o.errs
	switch {
	case b.rep.Hash == "":
		b.rep.Hash, b.rep.SimP99, b.shared = o.hash, o.simP99, o.shared
		b.rep.Reference = "none recorded for this seed"
		if b.want != "" {
			b.rep.Reference = "match"
			if o.hash != b.want {
				b.rep.Reference = "MISMATCH"
				errs = append(errs, fmt.Sprintf("hash %s differs from the recorded reference %s", o.hash, b.want))
			}
		}
	case shared && o.shared != b.shared:
		errs = append(errs, fmt.Sprintf("shared-statistics hash %s differs from the first pass's %s", o.shared, b.shared))
	case !shared && o.hash != b.rep.Hash:
		errs = append(errs, fmt.Sprintf("hash %s differs from the first pass's %s", o.hash, b.rep.Hash))
	}
	if len(errs) > 0 {
		b.rep.Failed++
		for _, e := range errs {
			b.rep.Errors = append(b.rep.Errors, what+": "+e)
		}
	}
}

// timedPass runs and checks one untraced pass and returns its host
// seconds. Only the job itself is timed: not the collection that gives
// every pass the clean heap a fresh process has, and not the check.
func (b *bench) timedPass(what string) float64 {
	runtime.GC()
	t := time.Now()
	o := b.job.pass(nil, nil)
	d := time.Since(t).Seconds()
	b.check(what, o, false)
	return d
}

// timedRun is the end-to-end run: untraced passes back to back for the
// given host seconds, with the calibration kernel timed in the gap before
// the first pass and after every pass, then the worker-count identity
// re-runs. A gap holds at least one calibration and enough to spend
// calibrationShare of the previous pass's time, so long passes get a
// steadier reading. A pass's wall_cal is its host time over the mean of
// the median calibrations of the gaps around it. Where the kernel lets a
// process reset its peak RSS, peak_rss_mb is the median of the passes'
// peaks; otherwise it is the process's peak.
func (b *bench) timedRun(seconds float64) error {
	var peaks []float64
	perPass := true
	prev := b.calibrateGap(0)
	t0 := time.Now()
	for len(b.rep.WallS) == 0 || time.Since(t0).Seconds() < seconds {
		perPass = perPass && resetPeakRSS() == nil
		wall := b.timedPass(fmt.Sprintf("pass %d", len(b.rep.WallS)))
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		peaks = append(peaks, rss)
		next := b.calibrateGap(wall)
		b.rep.WallS = append(b.rep.WallS, wall)
		b.rep.WallCal = append(b.rep.WallCal, wall/((prev+next)/2))
		prev = next
	}
	b.rep.PeakRSSMB = peaks[len(peaks)-1]
	if perPass {
		b.rep.PeakRSSMB = median(peaks)
	}
	b.runVariants()
	return nil
}

// calibrateGap times the calibration kernel at least once and until the
// readings add up to calibrationShare of passSeconds, records them, and
// returns their median.
func (b *bench) calibrateGap(passSeconds float64) float64 {
	var gap []float64
	for spent := 0.0; len(gap) == 0 || spent < calibrationShare*passSeconds; {
		c := calibrate(b.job.threads)
		gap = append(gap, c)
		spent += c
	}
	b.rep.CalibS = append(b.rep.CalibS, gap...)
	return median(gap)
}

// runVariants re-runs the job at each other worker count, outside the
// timed passes, and returns their host seconds and outcomes.
func (b *bench) runVariants() ([]float64, []outcome) {
	var walls []float64
	var outs []outcome
	for _, v := range b.job.variants {
		t := time.Now()
		o := v.run()
		walls = append(walls, time.Since(t).Seconds())
		outs = append(outs, o)
		b.check(v.name, o, v.shared)
	}
	return walls, outs
}

// tracedRun is the per-layer run. The first half of the time alternates
// untraced and traced passes (their ratio is the tracing overhead); the
// second half runs untraced passes under the CPU profiler. Spans go to
// outDir when the run ends.
func (b *bench) tracedRun(w workload, tr *tracer, seconds float64, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("creating output directory: %w", err)
	}
	layers := map[string][]float64{}
	rt0 := readRuntime()
	t0 := time.Now()
	for i := 0; len(b.rep.TracedS) == 0 || time.Since(t0).Seconds() < seconds/2; i++ {
		// Alternate which side of the pair runs first, so drift in host
		// speed does not bias the overhead.
		if i%2 == 0 {
			b.rep.WallS = append(b.rep.WallS, b.timedPass(fmt.Sprintf("untraced pass %d", i)))
		}
		runtime.GC()
		root := tr.begin("pass", nil)
		o := b.job.pass(tr, root)
		tr.end(root)
		b.check(fmt.Sprintf("traced pass %d", i), o, false)
		b.rep.TracedS = append(b.rep.TracedS, root.seconds())
		for k, v := range o.layers {
			layers[k] = append(layers[k], v)
		}
		layers["go.alloc_mb"] = append(layers["go.alloc_mb"], float64(root.AllocBytes)/(1<<20))
		layers["go.gc_cycles"] = append(layers["go.gc_cycles"], float64(root.GCCycles))
		if i%2 == 1 {
			b.rep.WallS = append(b.rep.WallS, b.timedPass(fmt.Sprintf("untraced pass %d", i)))
		}
	}
	rt := readRuntime().sub(rt0)

	b.rep.Layers = map[string]float64{}
	for k, vs := range layers {
		b.rep.Layers[k] = median(vs)
	}
	if rt.totalCPU > 0 {
		b.rep.Layers["go.gc_cpu_frac"] = rt.gcCPU / rt.totalCPU
	}
	b.rep.Layers["trace.overhead_frac"] = median(b.rep.TracedS)/median(b.rep.WallS) - 1
	b.rep.Layers["host.wall_s"] = median(b.rep.WallS)
	for i := 0; i < hostCalibrations; i++ {
		b.rep.CalibS = append(b.rep.CalibS, calibrate(b.job.threads))
	}
	b.rep.Layers["host.calib_s"] = median(b.rep.CalibS)
	b.rep.Layers["machine.setup_s"] = machineSetupSeconds(b.rep.Seed, tr)

	prof := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, b.rep.Seed))
	if err := b.profile(prof, seconds/2); err != nil {
		return err
	}
	b.rep.Profile = prof

	walls, outs := b.runVariants()
	if w.name == "fleet16" {
		// variants[0] is ShardWorkers=2.
		b.rep.Layers["pdes.w2_speedup"] = median(b.rep.WallS) / walls[0]
		b.rep.Layers["pdes.w2_busy_frac"] = outs[0].workerBusy / (2 * walls[0])
	}
	b.rep.Absent = w.absent

	spans := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.json", w.name, b.rep.Seed))
	if err := writeJSON(spans, tr.spans); err != nil {
		return err
	}
	b.rep.Spans = spans
	return nil
}

// profile runs untraced passes under the CPU profiler for the given host
// seconds (at least one pass).
func (b *bench) profile(path string, seconds float64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	t0 := time.Now()
	for i := 0; i == 0 || time.Since(t0).Seconds() < seconds; i++ {
		b.timedPass(fmt.Sprintf("profiled pass %d", i))
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing CPU profile: %w", err)
	}
	return nil
}

// machineSetupSeconds is the median host time of one machine.NewMix call
// on a fresh engine, for the μManycore server serving the SocialNetwork
// mix (the same machine in every workload, so the figure compares).
func machineSetupSeconds(seed int64, tr *tracer) float64 {
	app := umanycore.SocialNetworkApps()[0]
	cfg := umanycore.UManycore()
	mix := umanycore.SocialNetworkMix()
	s := make([]float64, machineSetupSamples)
	for i := range s {
		t := time.Now()
		buildMachines(cfg, app, mix, 1, seed, tr)
		s[i] = time.Since(t).Seconds()
	}
	return median(s)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resetPeakRSS sets the process's peak resident set (VmHWM) to its
// current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set so far (VmHWM; getrusage's
// maxrss would also count the parent's pages inherited across fork).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// loadReferences parses the embedded workload -> seed -> hash table.
func loadReferences() (map[string]map[string]string, error) {
	refs := map[string]map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("parsing reference.json: %w", err)
	}
	return refs, nil
}

// recordReferences runs one pass of every workload for each recorded seed
// and writes the hashes. Rerun it only when a change deliberately alters
// the model's outputs.
func recordReferences(path string) error {
	refs := map[string]map[string]string{}
	for seed := int64(0); seed < recordedSeeds; seed++ {
		for _, w := range workloads {
			o := w.build(seed, nil).pass(nil, nil)
			if len(o.errs) > 0 {
				return errors.New(w.name + ": " + strings.Join(o.errs, "; "))
			}
			if refs[w.name] == nil {
				refs[w.name] = map[string]string{}
			}
			refs[w.name][strconv.FormatInt(seed, 10)] = o.hash
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, seed, o.hash)
		}
	}
	return writeJSON(path, refs)
}
