// Package lookup resolves the commands' -arch and -app flag values, so every
// CLI accepts the same machine presets and applications.
package lookup

import (
	"fmt"
	"strings"

	"umanycore/internal/machine"
	"umanycore/internal/workload"
)

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
