// Package cpuprof implements the -cpuprofile flag of the command-line tools:
// a pprof CPU profile of the whole run, so any figure regeneration or fleet
// run can show which layer its host time went to.
package cpuprof

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// running is the open profile file while a profile is being written.
var running *os.File

// Start begins writing a CPU profile of the process to a new file at path.
// An empty path profiles nothing.
func Start(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpu profile %s: %w", path, err)
	}
	running = f
	return nil
}

// Stop ends the running profile and closes its file. It does nothing when
// no profile is running, so a main may both defer it and call it before
// os.Exit.
func Stop() error {
	if running == nil {
		return nil
	}
	pprof.StopCPUProfile()
	f := running
	running = nil
	return f.Close()
}
