package cli

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// profile is the open -cpuprofile file while a profile is being written: a
// pprof CPU profile of the whole run, so any figure regeneration or fleet
// run can show which layer its host time went to.
var profile *os.File

// StartCPUProfile begins writing a CPU profile of the process to a new file
// at path. An empty path profiles nothing.
func StartCPUProfile(path string) error {
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
	profile = f
	return nil
}

// StopCPUProfile ends the running profile and closes its file. It does
// nothing when no profile is running, so a main may both defer it and exit
// through Exit.
func StopCPUProfile() error {
	if profile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	f := profile
	profile = nil
	return f.Close()
}

// Exit stops a running CPU profile, so a run that fails after profiling
// began still leaves a complete one, and ends the process with code.
func Exit(code int) {
	StopCPUProfile()
	os.Exit(code)
}

// Fatal reports err as the command prog's and exits 2: the exit code of
// every bad flag value and unusable input.
func Fatal(prog string, err error) {
	fmt.Fprintln(os.Stderr, prog+":", err)
	Exit(2)
}
