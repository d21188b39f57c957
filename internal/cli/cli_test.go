package cli

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "hello\n" {
		t.Fatalf("read %q, %v", b, err)
	}
	if err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("created a file in a missing directory")
	}
}

// TestWriteExemplarsFileHasNoNewline pins the exemplar file bytes: one JSON
// document with no trailing newline (stdout gets one to end the line).
func TestWriteExemplarsFileHasNoNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ex.json")
	if err := WriteExemplars(path, nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 || strings.HasSuffix(string(b), "\n") {
		t.Fatalf("exemplar file %q", b)
	}
}

func TestRunWindow(t *testing.T) {
	for _, c := range []struct {
		rps              float64
		duration, warmup time.Duration
		want             string
	}{
		{0, time.Millisecond, 0, "-rps 0 is out of range"},
		{math.NaN(), time.Millisecond, 0, "-rps NaN is out of range"},
		{math.Inf(1), time.Millisecond, 0, "-rps +Inf is out of range"},
		{100, 0, 0, "bad run window"},
		{100, time.Millisecond, -1, "bad run window"},
	} {
		if err := CheckRunWindow(c.rps, c.duration, c.warmup); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("CheckRunWindow(%v, %v, %v) = %v, want %q", c.rps, c.duration, c.warmup, err, c.want)
		}
	}
	if err := CheckRunWindow(100, time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	rc := RunConfig(nil, true, 100, 2*time.Millisecond, time.Millisecond, 7)
	if rc.RPS != 100 || rc.Duration != 2*sim.Millisecond || rc.Warmup != sim.Millisecond || rc.Seed != 7 ||
		len(rc.Mix) != len(workload.SocialNetworkMix()) {
		t.Fatalf("RunConfig = %+v", rc)
	}
}

func TestServiceName(t *testing.T) {
	app, err := App("CPost")
	if err != nil {
		t.Fatal(err)
	}
	name := ServiceName(app.Catalog)
	if got := name(0); got != app.Catalog.Service(0).Name {
		t.Fatalf("service 0 named %q", got)
	}
	if got := name(-1); got != "-1" {
		t.Fatalf("service -1 named %q", got)
	}
}
