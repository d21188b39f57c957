// Package cli is the front-end layer umsim, umprof and umbench share: the
// -arch and -app lookups, the run-window flags, FILE-or-"-" output, the
// -serve endpoints (serve.go, the only HTTP code the simulator links),
// -cpuprofile, the command-line check and the exit-2 path, so every command
// accepts the same values and writes the same bytes.
package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"umanycore/internal/machine"
	"umanycore/internal/obs"
	"umanycore/internal/sim"
	"umanycore/internal/workload"
)

// Parse parses the command line of the command prog and exits 2, naming
// them, on positional arguments. The commands take flags only, and flag
// parsing stops at the first non-flag, so a stray word would otherwise
// silently drop every flag after it.
func Parse(prog string) {
	flag.Parse()
	if flag.NArg() > 0 {
		Fatal(prog, fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
}

// Arch returns the machine preset an -arch value names: umanycore (umc),
// scaleout (so) or serverclass (sc) with the given core count. The preset
// is validated, so a core count it cannot use is an error, not a panic.
func Arch(name string, cores int) (machine.Config, error) {
	var cfg machine.Config
	switch strings.ToLower(name) {
	case "umanycore", "umc":
		cfg = machine.UManycoreConfig()
	case "scaleout", "so":
		cfg = machine.ScaleOutConfig()
	case "serverclass", "sc":
		cfg = machine.ServerClassConfig(cores)
	default:
		return cfg, fmt.Errorf("unknown architecture %q (want umanycore, scaleout or serverclass)", name)
	}
	return cfg, cfg.Validate()
}

// App returns the application an -app value names: a SocialNetwork or
// μSuite application (case-insensitive) or a
// synthetic:<dist>:<mean_us>:<blocks> spec.
func App(name string) (*workload.App, error) {
	if strings.HasPrefix(name, "synthetic:") {
		return workload.ParseSyntheticApp(name)
	}
	for _, apps := range [][]*workload.App{workload.SocialNetworkApps(), workload.MuSuiteApps()} {
		for _, a := range apps {
			if strings.EqualFold(a.Name, name) {
				return a, nil
			}
		}
	}
	return nil, fmt.Errorf("unknown application %q (want one of %v, one of %v, or synthetic:<dist>:<mean_us>:<blocks>)",
		name, workload.AppNames, workload.MuSuiteAppNames)
}

// CheckRunWindow reports an -rps, -duration or -warmup value no run can
// use (NaN and infinite loads included).
func CheckRunWindow(rps float64, duration, warmup time.Duration) error {
	switch {
	case !(rps > 0) || math.IsInf(rps, 1):
		return fmt.Errorf("-rps %v is out of range: want a positive offered load", rps)
	case duration <= 0 || warmup < 0:
		return fmt.Errorf("bad run window: -duration must be positive and -warmup non-negative (got %v / %v)", duration, warmup)
	}
	return nil
}

// RunConfig is the run the run-window flags describe: app at rps over
// duration, measured after warmup, driven by the SocialNetwork request mix
// when mix is set.
func RunConfig(app *workload.App, mix bool, rps float64, duration, warmup time.Duration, seed int64) machine.RunConfig {
	rc := machine.RunConfig{
		App:      app,
		RPS:      rps,
		Duration: SimTime(duration),
		Warmup:   SimTime(warmup),
		Seed:     seed,
	}
	if mix {
		rc.Mix = workload.SocialNetworkMix()
	}
	return rc
}

// SimTime converts a duration flag to simulated time.
func SimTime(d time.Duration) sim.Time { return sim.Time(d.Nanoseconds()) * sim.Nanosecond }

// MixTag is the workload line's suffix for a -mix run.
func MixTag(mix bool) string {
	if mix {
		return " (mixed SocialNetwork stream)"
	}
	return ""
}

// WriteFile creates the file at path and fills it with write, or hands
// write stdout when path is "-".
func WriteFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteExemplars writes tail exemplars as one line of JSON to path (see
// WriteFile), ending the line only on stdout.
func WriteExemplars(path string, xs []obs.Exemplar) error {
	return WriteFile(path, func(w io.Writer) error {
		if err := obs.WriteExemplarsJSON(w, xs); err != nil {
			return err
		}
		if path != "-" {
			return nil
		}
		_, err := io.WriteString(w, "\n")
		return err
	})
}

// ServiceName names a span's service in a Chrome trace: its name in
// catalog, or its number when the catalog has no such service.
func ServiceName(catalog *workload.Catalog) func(int16) string {
	return func(svc int16) string {
		if int(svc) >= 0 && int(svc) < len(catalog.Services) {
			return catalog.Service(int(svc)).Name
		}
		return strconv.Itoa(int(svc))
	}
}
