package secmediation_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNoOrphanInternalPackages guards the ROADMAP invariant "no package
// nothing imports": every internal/... package must be imported by the
// non-test files of some other package in the module. A package reachable
// only from _test.go files (or from nothing) is dead weight that still
// costs every tier-1 run its build and tests.
func TestNoOrphanInternalPackages(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []string
	imported := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkgs = append(pkgs, fields[0])
		for _, imp := range fields[1:] {
			imported[imp] = true
		}
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg, "/internal/") && !imported[pkg] {
			t.Errorf("%s has no importer among non-test files", pkg)
		}
	}
}
