package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("UMSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UMSIM_RUN_MAIN=1")
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

// TestMetricsGolden pins the -metrics JSON snapshot byte for byte. The
// stdout report includes wall-clock timings, so the file output is the
// stable surface to golden-test.
func TestMetricsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	f := t.TempDir() + "/metrics.json"
	stdout, stderr, code := runMain(t,
		"-app", "Text", "-rps", "8000", "-duration", "40ms", "-warmup", "10ms", "-metrics", f)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "latency [us] :") {
		t.Fatalf("summary missing from stdout: %q", stdout)
	}
	b, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"machine":"uManycore","app":"Text","rps":8000,"latency":{"n":219,"mean":516.2658369452055,"p50":507.559109,"p99":781.564295,"max":797.057152},"metrics":{"icn.hops.mean":4,"icn.messages":1794,"machine.admit.nicbuf":0,"machine.admit.reject":0,"machine.admit.rq":1196,"machine.admit.swq":0,"machine.completed":299,"machine.core.util.max":0.035908104525,"machine.core.util.mean":0.0034214814961669926,"machine.core.util.min":0,"machine.invocations":1196,"machine.queue.depth.max":1,"machine.queue.depth.mean":0,"machine.rejected":0,"machine.submitted":299,"sim.events":10466,"sim.heap.peak":18}}` + "\n"
	if string(b) != want {
		t.Fatalf("metrics snapshot drifted:\ngot:  %swant: %s", b, want)
	}
}

// TestWatchdogOutput drives the SLO watchdog from the command line: a P99
// objective far below the delivered latency must print firing alerts.
func TestWatchdogOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	stdout, stderr, code := runMain(t,
		"-app", "Text", "-rps", "8000", "-duration", "40ms", "-warmup", "10ms", "-slo-p99", "50")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "slo watchdog :") {
		t.Fatalf("no watchdog section: %q", stdout)
	}
	if !strings.Contains(stdout, "slo.p99") {
		t.Fatalf("slo.p99 did not fire against a 50us objective: %q", stdout)
	}
}

// TestBadFlagBoundsExit pins the parse-time flag validation: out-of-range
// values exit 2 before any simulation starts.
func TestBadFlagBoundsExit(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-rps", "-5"}, "-rps -5 is out of range"},
		{[]string{"-rps", "0"}, "-rps 0 is out of range"},
		{[]string{"-rps", "NaN"}, "-rps NaN is out of range"},
		{[]string{"-rps", "+Inf"}, "-rps +Inf is out of range"},
		{[]string{"-duration", "-10ms"}, "bad run window"},
		{[]string{"-warmup", "-1ms"}, "bad run window"},
		{[]string{"-replicates", "0"}, "-replicates 0 is out of range"},
		{[]string{"-replicates", "-3"}, "-replicates -3 is out of range"},
		{[]string{"-exemplars-k", "0"}, "-exemplars-k 0 is out of range"},
		{[]string{"-slo-p99", "-100"}, "-slo-p99 -100 is out of range"},
		{[]string{"-queues", "100000"}, "machine: bad cores/domains 1024/100000"},
		{[]string{"-queues", "-3"}, "-queues -3 is out of range"},
		{[]string{"-cs", "-2"}, "-cs -2 is out of range"},
		{[]string{"-arch", "sc", "-cores", "0"}, "machine: bad cores/domains"},
		{[]string{"-rps", "1000", "stray", "-dash"}, `unexpected arguments ["stray" "-dash"]`},
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

func TestBadAppExits(t *testing.T) {
	_, stderr, code := runMain(t, "-app", "NoSuchApp")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown application") {
		t.Fatalf("stderr %q", stderr)
	}
}

// TestMuSuiteApp: umsim resolves -app through the same lookup as umprof, so
// the μSuite benchmarks run, whatever their case.
func TestMuSuiteApp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	stdout, stderr, code := runMain(t, "-app", "hdsearch", "-rps", "2000", "-duration", "5ms", "-warmup", "1ms")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "workload     : HDSearch @ 2000 RPS") {
		t.Fatalf("HDSearch run missing from stdout: %q", stdout)
	}
}
