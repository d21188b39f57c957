package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"umanycore"
	"umanycore/internal/stats"
)

func TestMain(m *testing.M) {
	if os.Getenv("UMBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UMBENCH_RUN_MAIN=1")
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

// TestPowerTableGolden pins the closed-form power/area table — no simulation
// behind it, so it runs instantly and any drift means the package model moved.
func TestPowerTableGolden(t *testing.T) {
	stdout, stderr, code := runMain(t, "-figures", "power")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, row := range []string{
		"uManycore             430.2        547.6",
		"ScaleOut              417.9        532.2",
		"ServerClass-40        409.1        176.1",
		"ServerClass-128      1309.0        547.2",
	} {
		if !strings.Contains(stdout, row) {
			t.Errorf("power table missing row %q in:\n%s", row, stdout)
		}
	}
}

// TestE2EJSONGolden checks the machine-readable grid encoding on constructed
// rows (running the real e2e figure takes minutes). Field order and float
// formatting must stay byte-stable — downstream diffing depends on it.
func TestE2EJSONGolden(t *testing.T) {
	rows := []umanycore.E2ERow{
		{
			App: "CPost", RPS: 15000, Arch: "uManycore",
			Latency:     stats.Summary{N: 100, Mean: 50.5, Median: 48, P99: 120.25, Max: 130},
			TailToAvg:   2.381188118811881,
			Utilization: 0.25,
			Unfinished:  0,
		},
		{
			App: "Text", RPS: 5000, Arch: "ScaleOut",
			Latency:     stats.Summary{N: 7, Mean: 10, Median: 9, P99: 30, Max: 31},
			TailToAvg:   3,
			Utilization: 0.0625,
			Unfinished:  2,
		},
	}
	f := t.TempDir() + "/e2e.json"
	if err := writeRowsJSON(f, rows); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	want := `[
  {
    "app": "CPost",
    "rps": 15000,
    "arch": "uManycore",
    "latency": {
      "n": 100,
      "mean": 50.5,
      "p50": 48,
      "p99": 120.25,
      "max": 130
    },
    "p99_to_avg": 2.381188118811881,
    "util": 0.25,
    "unfinished": 0
  },
  {
    "app": "Text",
    "rps": 5000,
    "arch": "ScaleOut",
    "latency": {
      "n": 7,
      "mean": 10,
      "p50": 9,
      "p99": 30,
      "max": 31
    },
    "p99_to_avg": 3,
    "util": 0.0625,
    "unfinished": 2
  }
]
`
	if string(b) != want {
		t.Fatalf("e2e json drifted:\ngot:\n%s\nwant:\n%s", b, want)
	}
}

// TestDiffBaseline exercises the -baseline comparator on constructed rows:
// identical rows pass, drift past the threshold fails (unless warn-only),
// vanished metrics fail, and every comparison appends a trajectory point.
func TestDiffBaseline(t *testing.T) {
	type row struct {
		Policy    string  `json:"policy"`
		P99Micros float64 `json:"p99_us"`
		Rejected  int     `json:"rejected"`
	}
	base := []row{{"rr", 1000, 0}, {"p2c", 800, 2}}
	path := t.TempDir() + "/BENCH_test_baseline.json"
	if err := writeRowsJSON(path, base); err != nil {
		t.Fatal(err)
	}

	if err := diffBaseline(path, base, 5, false); err != nil {
		t.Fatalf("identical rows failed: %v", err)
	}
	drifted := []row{{"rr", 1200, 0}, {"p2c", 800, 2}}
	if err := diffBaseline(path, drifted, 5, false); err == nil {
		t.Fatal("20% p99 drift passed a 5% threshold")
	}
	if err := diffBaseline(path, drifted, 5, true); err != nil {
		t.Fatalf("warn-only still failed: %v", err)
	}
	if err := diffBaseline(path, drifted, 25, false); err != nil {
		t.Fatalf("20%% drift failed a 25%% threshold: %v", err)
	}
	if err := diffBaseline(path, base[:1], 5, false); err == nil {
		t.Fatal("missing row passed")
	}
	renamed := []row{{"least", 1000, 0}, {"p2c", 800, 2}}
	if err := diffBaseline(path, renamed, 5, false); err == nil {
		t.Fatal("changed string field passed")
	}

	traj, err := os.ReadFile(path + ".trajectory.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(traj), "\n"); lines != 6 {
		t.Fatalf("trajectory has %d points, want 6:\n%s", lines, traj)
	}
	if !strings.Contains(string(traj), `"worst_path":"[0].p99_us"`) {
		t.Fatalf("trajectory missing worst path:\n%s", traj)
	}
}

// TestBaselineNeedsRowsExit pins the parse-time refusal of -baseline unless
// -figures selects exactly one row-producing figure: none, or several (whose
// rows cannot all be diffed against one file), exits 2 before any figure
// runs, naming every row-producing figure.
func TestBaselineNeedsRowsExit(t *testing.T) {
	for _, figs := range []string{"power", "19", "lb,control"} {
		stdout, stderr, code := runMain(t, "-figures", figs, "-baseline", "nonexistent.json")
		if code != 2 {
			t.Fatalf("-figures %s: exit %d, want 2 (stderr %q)", figs, code, stderr)
		}
		if stdout != "" {
			t.Fatalf("-figures %s: figure output before the refusal:\n%s", figs, stdout)
		}
		if !strings.Contains(stderr, "exactly one row-producing figure (one of e2e, lb, graph, scale, control, whatif)") {
			t.Fatalf("-figures %s: stderr %q", figs, stderr)
		}
	}
}

// TestBadFlagBoundsExit pins the parse-time flag validation: bad bounds and
// unknown figure names exit 2 before any simulation starts.
func TestBadFlagBoundsExit(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-figures", "lb,bogus"}, `unknown figure "bogus"`},
		{[]string{"-figures", ""}, `unknown figure ""`},
		{[]string{"-baseline-threshold", "-1", "-figures", "power"}, "-baseline-threshold -1 is out of range"},
		{[]string{"-baseline-threshold", "NaN", "-figures", "power"}, "-baseline-threshold NaN is out of range"},
		{[]string{"-figures", "power", "stray", "-json", "-"}, `unexpected arguments ["stray" "-json" "-"]`},
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

// TestControlFigureRuns drives the control figure end to end through the CLI
// at quick fidelity and checks the storm scenario's headline columns reach
// the table.
func TestControlFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	stdout, stderr, code := runMain(t, "-quick", "-figures", "control")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"Closed-loop control study", "uncapped", "capped+shed", "hedge=500us", "lag=25ms", "goodput"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("control figure output missing %q:\n%s", want, stdout)
		}
	}
}

func TestBadServeAddrExits(t *testing.T) {
	_, stderr, code := runMain(t, "-serve", "not/an/addr", "-figures", "power")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "umbench:") {
		t.Fatalf("stderr %q", stderr)
	}
}

func TestGraphFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	stdout, stderr, code := runMain(t, "-quick", "-figures", "graph")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"Service-graph study", "colocated", "spread", "random", "remote"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("graph figure output missing %q:\n%s", want, stdout)
		}
	}
}

// TestJSONKeepsEveryFigure: with several row-producing figures, -json
// writes one object keyed by figure name in run order, each figure's rows
// intact (lb's equal the single-figure golden), instead of keeping only the
// last figure's.
func TestJSONKeepsEveryFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick lb and graph figures")
	}
	path := filepath.Join(t.TempDir(), "figs.json")
	if _, stderr, code := runMain(t, "-quick", "-figures", "lb,graph", "-json", path); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var figs map[string]json.RawMessage
	if err := json.Unmarshal(raw, &figs); err != nil {
		t.Fatalf("-json output is not one object: %v\n%s", err, raw)
	}
	if len(figs) != 2 {
		t.Fatalf("-json object has %d figures, want lb and graph", len(figs))
	}
	lb, graph := strings.Index(string(raw), `"lb": [`), strings.Index(string(raw), `"graph": [`)
	if lb < 0 || graph < lb {
		t.Fatalf("figures missing or out of run order (lb at %d, graph at %d)", lb, graph)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "lb_quick_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := json.Compact(&want, golden); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&got, figs["lb"]); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("lb rows differ from the single-figure golden:\n got: %s\nwant: %s", got.String(), want.String())
	}
	var rows []map[string]any
	if err := json.Unmarshal(figs["graph"], &rows); err != nil || len(rows) == 0 {
		t.Fatalf("graph rows missing (%v): %s", err, figs["graph"])
	}
	if _, ok := rows[0]["Placement"]; !ok {
		t.Fatalf("graph rows lack their Placement field: %v", rows[0])
	}
}

// TestCPUProfileWritten checks that -cpuprofile leaves a non-empty pprof
// file behind once the run exits.
func TestCPUProfileWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	_, stderr, code := runMain(t, "-figures", "power", "-cpuprofile", path)
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
