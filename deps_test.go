package umanycore

import (
	"os/exec"
	"strings"
	"testing"
)

// forbiddenDeps are the packages the simulator library must not link. Only
// the -serve endpoints in internal/cli need the HTTP stack. With it and
// regexp, every process that imports the library carries about 2 MB more
// text and twice as many package initialisers, which a sweep of many short
// runs pays again and again.
var forbiddenDeps = []string{"net", "net/http", "crypto/tls", "regexp"}

// TestLibraryDependencyBoundary lists, with go list, the transitive
// dependencies (what go list -deps prints) of this package and of every
// internal package except internal/cli, the command-line layer, and fails
// if any of them reaches a forbidden package.
func TestLibraryDependencyBoundary(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go not on PATH")
	}
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}", ".", "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	checked := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkg, deps := fields[0], fields[1:]
		if pkg == "umanycore/internal/cli" {
			continue
		}
		checked++
		for _, dep := range deps {
			for _, bad := range forbiddenDeps {
				if dep == bad {
					t.Errorf("%s links %s", pkg, bad)
				}
			}
		}
	}
	if checked < 2 {
		t.Fatalf("go list reported %d packages to check:\n%s", checked, out)
	}
}
