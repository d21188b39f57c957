package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"umanycore/internal/svcgraph"
)

// wallSecondsRe matches the one non-deterministic field of the fleet JSON
// output; golden tests normalize it to 0 before comparing (the same
// normalization scripts/ci.sh applies for its cross-worker byte-compare).
var wallSecondsRe = regexp.MustCompile(`"wall_seconds":[0-9.eE+-]+`)

func normalizeWall(s string) string {
	return wallSecondsRe.ReplaceAllString(s, `"wall_seconds":0`)
}

// TestMain re-execs the test binary as the real command when the driver
// environment variable is set, so tests can run main() as a subprocess with
// real flag parsing and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("UMPROF_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UMPROF_RUN_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return out.String(), errb.String(), ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return out.String(), errb.String(), 0
}

// TestJSONGolden pins umprof -json output byte for byte: the simulation is
// deterministic and the encoder is fixed-field-order, so this line only
// moves when the machine model or wire format deliberately changes.
func TestJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	stdout, stderr, code := runMain(t,
		"-app", "Text", "-rps", "8000", "-duration", "40ms", "-warmup", "10ms", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	want := `{"machine":"uManycore","app":"Text","rps":8000,"latency":{"n":219,"mean":516.2658369452055,"p50":507.559109,"p99":781.564295,"max":797.057152},"tail":{"top_frac":0.01,"traced":219,"analyzed":3,"cutoff_us":781.564,"traced_p99_us":781.564,"by_stage_us":{"ingress":3.600,"sched":0.216,"ctxswitch":2.304,"service":1098.373,"storage":1184.514,"net":76.862},"residual_ps":0}}` + "\n"
	if stdout != want {
		t.Fatalf("json output drifted:\ngot:  %swant: %s", stdout, want)
	}
}

// TestFleetP2CJSONGolden pins the coupled-fleet path byte for byte: two
// servers (one 2× straggler), power-of-two-choices routing, cross-server
// RPCs shipped between the servers, traces stitched across both — the
// by_server_stage_us split and the fleet execution summary included. Only
// wall_seconds is normalized (the one wall-clock field). The line only moves
// when the fleet coupling or wire format deliberately changes.
func TestFleetP2CJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	stdout, stderr, code := runMain(t,
		"-app", "Text", "-rps", "8000", "-duration", "40ms", "-warmup", "10ms",
		"-servers", "2", "-lb", "p2c", "-skew", "1,2", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	want := `{"machine":"uManycore x2 servers (p2c)","app":"Text","rps":8000,"latency":{"n":219,"mean":683.8382373835612,"p50":672.051632,"p99":1041.98432,"max":1139.72855},"tail":{"top_frac":0.01,"traced":219,"analyzed":3,"cutoff_us":1041.984,"traced_p99_us":1041.984,"by_stage_us":{"ingress":3.600,"sched":0.192,"ctxswitch":2.048,"service":2518.921,"storage":639.981,"net":63.540},"residual_ps":0,"by_server_stage_us":{"s0":{},"s1":{"ingress":3.600,"sched":0.192,"ctxswitch":2.048,"service":2518.921,"storage":639.981,"net":63.540}}},"fleet":{"completed":299,"rejected":0,"reject_rate":0.000000,"goodput_rps":7475,"events_processed":11683,"wall_seconds":0,"fabric_rounds":7629}}` + "\n"
	if got := normalizeWall(stdout); got != want {
		t.Fatalf("fleet json output drifted:\ngot:  %swant: %s", got, want)
	}
}

// TestFabricJSONGolden pins the PDES fabric report: -fabric appends the
// coupling's deterministic execution counters (rounds, messages, lookahead
// utilization) to the JSON output. Wall-clock diagnostics are deliberately
// absent from the JSON form, so after wall_seconds normalization the bytes
// are exact on a repeat run.
func TestFabricJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	args := []string{
		"-app", "Text", "-rps", "8000", "-duration", "40ms", "-warmup", "10ms",
		"-servers", "2", "-lb", "p2c", "-skew", "1,2", "-json", "-fabric",
	}
	stdout, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	wantFabric := `"fabric":{"shards":3,"lookahead_us":0.500,"rounds":7629,"messages_sent":1217,"messages_delivered":1217,"window_events":11683,"events_per_window":1.531,"lookahead_utilization":1.000000}`
	if !strings.Contains(stdout, wantFabric) {
		t.Fatalf("fabric report drifted:\ngot:  %swant fragment: %s", stdout, wantFabric)
	}
	again, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("repeat exit %d, stderr: %s", code, stderr)
	}
	if normalizeWall(again) != normalizeWall(stdout) {
		t.Fatalf("fabric output diverged on a repeat run:\nfirst: %sagain: %s", stdout, again)
	}
}

// TestWhatIfJSONGolden pins the causal-profiling grid byte for byte: the
// paired-seed what-if runs are deterministic simulations and the encoder is
// fixed-field-order with no wall-clock fields, so the whole report only
// moves when the machine model or wire format deliberately changes.
func TestWhatIfJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	stdout, stderr, code := runMain(t,
		"-whatif", "-app", "Text", "-rps", "8000", "-duration", "40ms", "-warmup", "10ms",
		"-whatif-stages", "sched,net", "-whatif-factors", "0.5,0", "-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	want := `{"machine":"uManycore","app":"Text","rps":8000,"servers":0,"seed":1,"top_frac":0.01,"factors":[0.5,0],"baseline":{"latency":{"n":219,"mean":516.2658369452055,"p50":507.559109,"p99":781.564295,"max":797.057152},"p999":797.057152,"blame":{"top_frac":0.01,"total":219,"analyzed":3,"cutoff_ps":781564295,"p99_ps":781564295,"total_ps":2365869066,"by_stage_ps":[0,0,3600000,0,216000,2304000,0,0,1098372766,1184513900,76862400,0]}},"rows":[{"stage":"sched","factor":0.5,"cell":{"latency":{"n":219,"mean":515.4405941643836,"p50":507.183771,"p99":728.633378,"max":841.154302},"p999":841.154302,"blame":{"top_frac":0.01,"total":219,"analyzed":3,"cutoff_ps":728633378,"p99_ps":728633378,"total_ps":2303054151,"by_stage_ps":[0,0,3600000,0,108000,2304000,0,0,1244177641,976616510,76248000,0]}},"d_mean_us":-0.8252427808218954,"d_p50_us":-0.3753379999999993,"d_p99_us":-52.93091700000002,"d_p999_us":44.097150000000056,"blame_share":9.129837449761897e-05,"payoff_p99":0.06772432842521295,"migration":[{"stage":"storage","base_share":0.5006675631473851,"variant_share":0.42405277773253713,"d_share":-0.07661478541484801,"d_us":-69.29912999999999},{"stage":"service","base_share":0.46425763022339633,"variant_share":0.540229434231831,"d_share":0.07597180400843467,"d_us":48.60162500000001},{"stage":"net","base_share":0.03248801935178606,"variant_share":0.033107341382699426,"d_share":0.0006193220309133676,"d_us":-0.20479999999999876}]},{"stage":"sched","factor":0,"cell":{"latency":{"n":219,"mean":519.702242552511,"p50":510.21285,"p99":758.322827,"max":854.102512},"p999":854.102512,"blame":{"top_frac":0.01,"total":219,"analyzed":3,"cutoff_ps":758322827,"p99_ps":758322827,"total_ps":2454844001,"by_stage_ps":[0,0,3600000,0,0,2304000,0,0,1161170182,1210907419,76862400,0]}},"d_mean_us":3.4364056073055735,"d_p50_us":2.653741000000025,"d_p99_us":-23.241468000000054,"d_p999_us":57.04536000000007,"blame_share":9.129837449761897e-05,"payoff_p99":0.029737115869654784,"migration":[{"stage":"service","base_share":0.46425763022339633,"variant_share":0.47301180096453715,"d_share":0.008754170741140821,"d_us":20.93247200000002},{"stage":"storage","base_share":0.5006675631473851,"variant_share":0.49327265541383786,"d_share":-0.007394907733547285,"d_us":8.797839666666619},{"stage":"net","base_share":0.03248801935178606,"variant_share":0.031310502813494255,"d_share":-0.0011775165382918035,"d_us":0}]},{"stage":"net","factor":0.5,"cell":{"latency":{"n":219,"mean":498.1436980502281,"p50":479.345866,"p99":758.411693,"max":851.527513},"p999":851.527513,"blame":{"top_frac":0.01,"total":219,"analyzed":3,"cutoff_ps":758411693,"p99_ps":758411693,"total_ps":2379750919,"by_stage_ps":[0,0,3600000,0,216000,2304000,0,0,1224749724,1110757195,38124000,0]}},"d_mean_us":-18.122138894977354,"d_p50_us":-28.213242999999977,"d_p99_us":-23.152602,"d_p999_us":54.470361000000025,"blame_share":0.03248801935178606,"payoff_p99":0.029623413131993192,"migration":[{"stage":"service","base_share":0.46425763022339633,"variant_share":0.5146545859995527,"d_share":0.05039695577615638,"d_us":42.12565266666667},{"stage":"storage","base_share":0.5006675631473851,"variant_share":0.4667535522863685,"d_share":-0.03391401086101664,"d_us":-24.585568333333356},{"stage":"net","base_share":0.03248801935178606,"variant_share":0.016020163999356775,"d_share":-0.016467855352429284,"d_us":-12.912799999999999}]},{"stage":"net","factor":0,"cell":{"latency":{"n":219,"mean":487.96266731050196,"p50":481.9927,"p99":714.505214,"max":775.026842},"p999":775.026842,"blame":{"top_frac":0.01,"total":219,"analyzed":3,"cutoff_ps":714505214,"p99_ps":714505214,"total_ps":2234564988,"by_stage_ps":[0,0,3600000,0,216000,2304000,0,0,1298711179,929733809,0,0]}},"d_mean_us":-28.303169634703522,"d_p50_us":-25.566408999999965,"d_p99_us":-67.05908099999999,"d_p999_us":-22.030309999999986,"blame_share":0.03248801935178606,"payoff_p99":0.08580110610093823,"migration":[{"stage":"service","base_share":0.46425763022339633,"variant_share":0.5811919483095382,"d_share":0.11693431808614191,"d_us":66.77947099999994},{"stage":"storage","base_share":0.5006675631473851,"variant_share":0.41606926358948215,"d_share":-0.08459829955790299,"d_us":-84.92669699999999},{"stage":"net","base_share":0.03248801935178606,"variant_share":0,"d_share":-0.03248801935178606,"d_us":-25.6208}]}]}` + "\n"
	if stdout != want {
		t.Fatalf("what-if json output drifted:\ngot:  %swant: %s", stdout, want)
	}
}

// TestWhatIfFleetRepeatByteIdentity checks the -whatif CLI contract on
// the coupled fleet: stdout is byte-identical on a repeat run (no
// normalization needed — the what-if report carries no wall-clock fields).
func TestWhatIfFleetRepeatByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	args := []string{
		"-whatif", "-app", "Text", "-rps", "8000", "-duration", "30ms", "-warmup", "5ms",
		"-servers", "2", "-lb", "p2c", "-skew", "1,2",
		"-whatif-stages", "net", "-whatif-factors", "0.5", "-json",
	}
	ref, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	got, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("repeat exit %d, stderr: %s", code, stderr)
	}
	if got != ref {
		t.Fatalf("what-if output diverged on a repeat run:\nfirst: %sagain: %s", ref, got)
	}
}

func TestBadFlagBoundsExit(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-top", "0"}, "-top 0 is out of range"},
		{[]string{"-top", "150"}, "-top 150 is out of range"},
		{[]string{"-top", "NaN"}, "-top NaN is out of range"},
		{[]string{"-exemplars-k", "0"}, "-exemplars-k 0 is out of range"},
		{[]string{"-whatif", "-whatif-factors", "-0.5"}, "whatif: cost factor -0.5 outside [0, 1]"},
		{[]string{"-whatif", "-whatif-factors", "1.5"}, "whatif: cost factor 1.5 outside [0, 1]"},
		{[]string{"-whatif", "-whatif-factors", "NaN"}, "whatif: cost factor NaN outside [0, 1]"},
		{[]string{"-whatif", "-whatif-stages", "queue"}, "unknown what-if stage"},
		{[]string{"-servers", "2", "-retries", "-1"}, "control: MaxRetries -1 < 0"},
		{[]string{"-servers", "2", "-retries", "2", "-retry-base", "-1ms"}, "control: negative duration"},
		{[]string{"-servers", "2", "-retries", "2", "-retry-cap", "-1ms"}, "control: negative duration"},
		{[]string{"-servers", "2", "-retries", "2", "-retry-jitter", "1.5"}, "control: RetryJitter 1.5 outside [0,1]"},
		{[]string{"-retry-jitter", "1.5"}, "control: RetryJitter 1.5 outside [0,1]"},
		{[]string{"-servers", "2", "-retries", "2", "-retry-jitter", "NaN"}, "control: RetryJitter NaN outside [0,1]"},
		{[]string{"-servers", "2", "-shed-prob", "2"}, "control: ShedProb 2 outside [0,1]"},
		{[]string{"-servers", "2", "-shed-prob", "0.5"}, "control: shedding needs ShedSLOMicros > 0"},
		{[]string{"-servers", "2", "-scale-min", "-1"}, "control: ScaleMin -1 < 0"},
		{[]string{"-servers", "2", "-scale-min", "1"}, "control: autoscaling needs ScaleP99Micros > 0"},
		{[]string{"-retries", "2"}, "need a coupled fleet"},
		{[]string{"-servers", "2", "-hedge", "1ms", "-whatif"}, "not supported with -whatif"},
		{[]string{"-lb", "bogus"}, "-lb needs a fleet (-servers"},
		{[]string{"-skew", "1,2"}, "-skew needs a fleet (-servers"},
		{[]string{"-servers", "0", "-lb", "p2c"}, "-lb needs a fleet (-servers"},
		{[]string{"-servers", "-3"}, "-servers -3 is out of range"},
		{[]string{"-fabric"}, "-fabric needs a coupled multi-server fleet"},
		{[]string{"-servers", "1", "-fabric"}, "-fabric needs a coupled multi-server fleet"},
		{[]string{"-whatif", "-servers", "2", "-fabric"}, "-fabric is not supported with -whatif"},
		{[]string{"-rps", "0"}, "-rps 0 is out of range"},
		{[]string{"-rps", "-5", "-servers", "2"}, "-rps -5 is out of range"},
		{[]string{"-duration", "-10ms"}, "bad run window"},
		{[]string{"-warmup", "-1ms"}, "bad run window"},
	} {
		_, stderr, code := runMain(t, tc.args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Fatalf("%v: stderr %q missing %q", tc.args, stderr, tc.want)
		}
	}
}

// TestControlJSONRepeatByteIdentity is the CLI form of the control
// determinism contract (and the template for the scripts/ci.sh gate): a
// retry+hedging fleet run prints byte-identical JSON — control section
// included — on a repeat run, after normalizing the one wall-clock field.
func TestControlJSONRepeatByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	args := []string{
		"-app", "Text", "-rps", "8000", "-duration", "40ms", "-warmup", "10ms",
		"-servers", "2", "-lb", "rr", "-skew", "1,3",
		"-retries", "2", "-hedge", "1ms", "-json",
	}
	ref, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(ref, `"control":{"submitted":`) {
		t.Fatalf("controlled run printed no control section: %s", ref)
	}
	if strings.Contains(ref, `"hedges":0,`) {
		t.Fatalf("straggler fleet never hedged — determinism run is vacuous: %s", ref)
	}
	got, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("repeat exit %d, stderr: %s", code, stderr)
	}
	if normalizeWall(got) != normalizeWall(ref) {
		t.Fatalf("control output diverged on a repeat run:\nfirst: %sagain: %s", ref, got)
	}
}

func TestBadLBExits(t *testing.T) {
	_, stderr, code := runMain(t, "-servers", "2", "-lb", "bogus")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown load-balancer policy") {
		t.Fatalf("stderr %q", stderr)
	}
}

func TestBadArchExits(t *testing.T) {
	_, stderr, code := runMain(t, "-arch", "bogus")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown architecture") {
		t.Fatalf("stderr %q", stderr)
	}
}

func TestSeriesCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	f := t.TempDir() + "/series.csv"
	_, stderr, code := runMain(t,
		"-app", "Text", "-rps", "8000", "-duration", "30ms", "-warmup", "5ms",
		"-sample", "2ms", "-series", f)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	b, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "series,kind,t_us,value\n") {
		t.Fatalf("series csv header missing: %q", string(b[:60]))
	}
	if !strings.Contains(string(b), "telemetry.latency.p99") {
		t.Fatal("series csv missing the latency window series")
	}
}

// writeTrace materializes a synthesized trace in the umtrace -csv wire
// format for the replay tests.
func writeTrace(t *testing.T, n int) string {
	t.Helper()
	path := t.TempDir() + "/trace.csv"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := svcgraph.WriteTrace(f, svcgraph.Synthesize(5, n)); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceFlagValidationExits pins the replay flag's fail-fast contract:
// unreadable files, malformed rows (named by line), and incompatible modes
// all exit 2 before any simulation runs.
func TestTraceFlagValidationExits(t *testing.T) {
	good := writeTrace(t, 3)
	bad := t.TempDir() + "/bad.csv"
	if err := os.WriteFile(bad, []byte("arrival_us,service,duration_us,cpu_util,rpcs\n1,a,-2,0.5,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace", t.TempDir() + "/nosuch.csv"}, "no such file"},
		{[]string{"-trace", bad}, `trace line 2: duration_us "-2" must be positive`},
		{[]string{"-trace", good, "-whatif"}, "not supported with -whatif"},
		{[]string{"-trace", good, "-servers", "2", "-retries", "2"}, "trace replay does not support the control loop"},
		{[]string{"-trace", good, "-app", "nosuch"}, "unknown app"},
	} {
		_, stderr, code := runMain(t, tc.args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Fatalf("%v: stderr %q missing %q", tc.args, stderr, tc.want)
		}
	}
}

// TestTraceReplayJSONRepeatByteIdentity is the CLI half of the replay
// determinism contract (and the template for the scripts/ci.sh round-trip
// gate): replaying one trace through the coupled fleet prints byte-identical
// JSON — trace accounting included — on a repeat run.
func TestTraceReplayJSONRepeatByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	trace := writeTrace(t, 400)
	args := []string{
		"-trace", trace, "-app", "CPost", "-rps", "20000",
		"-duration", "30ms", "-warmup", "5ms", "-servers", "2", "-lb", "rr", "-json",
	}
	ref, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(ref, `"trace":{"records":400,`) {
		t.Fatalf("replay run did not account for all 400 records: %s", ref)
	}
	if strings.Contains(ref, `"completed":0,`) {
		t.Fatalf("replay completed nothing: %s", ref)
	}
	got, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("repeat exit %d, stderr: %s", code, stderr)
	}
	if normalizeWall(got) != normalizeWall(ref) {
		t.Fatalf("replay output diverged on a repeat run:\nfirst: %sagain: %s", ref, got)
	}
}

// TestCPUProfileWritten checks that -cpuprofile leaves a non-empty pprof
// file behind once the run exits.
func TestCPUProfileWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	_, stderr, code := runMain(t, "-duration", "5ms", "-warmup", "1ms", "-json", "-cpuprofile", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatalf("%s is empty", path)
	}
}
