package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLBJSONGolden pins the full `-quick -figures lb -json` output against a
// checked-in golden file: one end-to-end guard over the simulation models,
// seed derivation, and the JSON encoding at once. If a model change is
// intentional, regenerate with:
//
//	go run ./cmd/umbench -quick -figures lb -json cmd/umbench/testdata/lb_quick_golden.json
func TestLBJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick lb figure (~6s)")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "lb_quick_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runMain(t, "-quick", "-figures", "lb", "-json", "-")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	// stdout carries the text table first, then the JSON array.
	i := strings.Index(stdout, "[\n")
	if i < 0 {
		t.Fatalf("no JSON array in output:\n%s", stdout)
	}
	if got := stdout[i:]; got != string(want) {
		t.Errorf("lb JSON drifted from golden (intentional model change? regenerate per test comment).\n got: %s\nwant: %s", got, want)
	}
}

// TestCacheCLIColdWarmVerify drives the -cache flags end to end through the
// re-exec harness: a cold run fills the directory, a warm run reuses it with
// byte-identical output, and -cache-verify recomputes clean.
func TestCacheCLIColdWarmVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick lb figure three times (~12s)")
	}
	dir := t.TempDir()
	args := []string{"-quick", "-figures", "lb", "-json", "-", "-cache", dir}

	cold, coldErr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("cold exit %d: %s", code, coldErr)
	}
	if !strings.Contains(coldErr, "misses") || !strings.Contains(coldErr, "[cache ") {
		t.Fatalf("no cache stats line on stderr:\n%s", coldErr)
	}

	warm, warmErr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("warm exit %d: %s", code, warmErr)
	}
	if warm != cold {
		t.Fatal("warm stdout differs from cold")
	}
	if !strings.Contains(warmErr, " 0 misses") {
		t.Fatalf("warm run missed cells:\n%s", warmErr)
	}

	ver, verErr, code := runMain(t, append(args, "-cache-verify")...)
	if code != 0 {
		t.Fatalf("verify exit %d: %s", code, verErr)
	}
	if ver != cold {
		t.Fatal("verify stdout differs from cold")
	}
	if !strings.Contains(verErr, "0 verify mismatches") {
		t.Fatalf("verify stats missing:\n%s", verErr)
	}
}

// TestCacheCLICorruptionRecovers flips a digit inside one stored payload —
// the checksum no longer matches, so the next run must invalidate the entry,
// recompute it, and still exit 0 with correct output.
func TestCacheCLICorruptionRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick lb figure twice (~12s)")
	}
	dir := t.TempDir()
	args := []string{"-quick", "-figures", "lb", "-json", "-", "-cache", dir}
	cold, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("cold exit %d: %s", code, stderr)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "??", "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries written: %v", err)
	}
	b, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(b), `"RemoteServed":`)
	if i < 0 {
		t.Fatalf("payload shape changed, no RemoteServed in %s", b)
	}
	k := i + len(`"RemoteServed":`)
	b[k] = b[k]%9 + '1' // change the leading digit; never maps to itself
	if err := os.WriteFile(entries[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("corrupt entry must recompute, not fail: exit %d: %s", code, stderr)
	}
	if out != cold {
		t.Fatal("output after corruption recovery differs from cold run")
	}
	if !strings.Contains(stderr, "1 invalidated") {
		t.Fatalf("corruption not counted on the stats line:\n%s", stderr)
	}
}

func TestCacheCLIFlagValidation(t *testing.T) {
	if _, stderr, code := runMain(t, "-cache-verify", "-figures", "power"); code != 2 ||
		!strings.Contains(stderr, "require -cache") {
		t.Fatalf("-cache-verify without -cache: exit %d, stderr %q", code, stderr)
	}
	if _, stderr, code := runMain(t, "-cache-clear", "-figures", "power"); code != 2 ||
		!strings.Contains(stderr, "require -cache") {
		t.Fatalf("-cache-clear without -cache: exit %d, stderr %q", code, stderr)
	}
}
