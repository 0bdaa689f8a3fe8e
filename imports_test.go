package secmediation_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// docGoPath matches a repo-relative Go file path in prose, with or
// without a :line suffix (which is not captured).
var docGoPath = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])((?:internal|cmd|examples)/[A-Za-z0-9_./-]*\.go)`)

// docMake matches a `make target...` command quoted in prose; the
// capture holds its arguments.
var docMake = regexp.MustCompile("`make ([^`]+)`")

// makeTarget matches a rule line in the Makefile; the capture is the
// target name.
var makeTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)

// TestDocsNameRealFiles fails when the living docs name a Go file that
// does not exist, or quote a `make` target the Makefile does not
// define — a reader following the reference lands nowhere. The dated
// history (ROADMAP.md, CHANGES.md, EXPERIMENTS.md) may name files and
// targets since deleted, and bench/README.md documents a frozen
// harness, so neither is scanned.
func TestDocsNameRealFiles(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("read %s: %v", doc, err)
			continue
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range docGoPath.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(m[1]); err != nil {
					t.Errorf("%s:%d names %s, which does not exist", doc, i+1, m[1])
				}
			}
			for _, m := range docMake.FindAllStringSubmatch(line, -1) {
				for _, arg := range strings.Fields(m[1]) {
					// Variable assignments (FUZZTIME=1s) and flags are not targets.
					if strings.Contains(arg, "=") || strings.HasPrefix(arg, "-") {
						continue
					}
					if !targets[arg] {
						t.Errorf("%s:%d quotes `make %s`, which the Makefile does not define", doc, i+1, arg)
					}
				}
			}
		}
	}
}
