package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if os.Getenv("UMTRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UMTRACE_RUN_MAIN=1")
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

// TestCSVGolden pins the deterministic record draw at seed 1.
func TestCSVGolden(t *testing.T) {
	stdout, stderr, code := runMain(t, "-requests", "5", "-csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// The marginal columns (duration_us,cpu_util,rpcs) are the same stream
	// the pre-replay 3-column format drew; arrivals and services come from
	// derived-seed streams (svcgraph.Synthesize).
	want := "arrival_us,service,duration_us,cpu_util,rpcs\n" +
		"276.455,CPost,1785.0,0.1051,27\n" +
		"2121.529,HomeT,1324.6,0.1672,7\n" +
		"2576.845,HomeT,123.2,0.0936,7\n" +
		"4045.106,HomeT,4252.6,0.2860,6\n" +
		"6023.192,Text,382.4,0.2058,6\n"
	if stdout != want {
		t.Fatalf("csv drifted:\ngot:\n%swant:\n%s", stdout, want)
	}
	// A data flag defaults the stats report off.
	if strings.Contains(stderr, "marginal") {
		t.Fatalf("stats leaked to stderr: %q", stderr)
	}
}

func TestStatsReport(t *testing.T) {
	stdout, stderr, code := runMain(t, "-requests", "200")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if stdout != "" {
		t.Fatalf("stats run wrote to stdout: %q", stdout)
	}
	if stderr == "" {
		t.Fatal("no stats report on stderr")
	}
}

func TestLoadCDF(t *testing.T) {
	stdout, _, code := runMain(t, "-servers", "20", "-seconds", "5", "-load-cdf")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) < 2 {
		t.Fatalf("cdf too short: %q", stdout)
	}
}

// TestStrayArgumentsExit: flag parsing stops at the first non-flag, so a
// stray word must fail the run instead of silently dropping the flags
// after it.
func TestStrayArgumentsExit(t *testing.T) {
	_, stderr, code := runMain(t, "-requests", "100", "stray", "-csv")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr)
	}
	if want := `unexpected arguments ["stray" "-csv"]`; !strings.Contains(stderr, want) {
		t.Fatalf("stderr %q missing %q", stderr, want)
	}
}
