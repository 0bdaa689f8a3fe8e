package seclint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden files instead of comparing against
// them: go test ./internal/seclint/ -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden/")

// goldenCases maps every analyzer to the fixture whose rendered
// findings are pinned. The goldens are the suite's one fixture oracle:
// each pins the exact file:line:col and full message of every finding,
// and comparing the whole output rules out unexpected findings. A
// wording change must show up in review as a golden diff, because the
// allowlist audit flow and grep-driven triage key on these strings.
var goldenCases = []goldenCase{
	{name: "weakrand", fixture: "testdata/src/weakrand", run: []*Analyzer{Weakrand}},
	{name: "weakrand_protocol", fixture: "testdata/src/weakrand_protocol", relDir: "internal/mediation", run: []*Analyzer{Weakrand}},
	{name: "subtlecmp", fixture: "testdata/src/subtlecmp", run: []*Analyzer{Subtlecmp}},
	{name: "secretfmt", fixture: "testdata/src/secretfmt", run: []*Analyzer{Secretfmt}},
	{name: "errdrop", fixture: "testdata/src/errdrop", run: []*Analyzer{Errdrop}},
	{name: "rawexp", fixture: "testdata/src/rawexp", relDir: "internal/crypto/fixture", run: []*Analyzer{Rawexp}},
	{name: "plaintaint", fixture: "testdata/src/plaintaint", program: true, run: []*Analyzer{Plaintaint}},
	{name: "keyscope", fixture: "testdata/src/keyscope", program: true, run: []*Analyzer{Keyscope}},
	{name: "cttaint", fixture: "testdata/src/cttaint", program: true, run: []*Analyzer{Cttaint}},
	{name: "conccheck", fixture: "testdata/src/conccheck", program: true, run: []*Analyzer{Conccheck}},
	{name: "conccheck_perimeter", fixture: "testdata/src/conccheck_perimeter", relDir: "internal/session", program: true, run: []*Analyzer{Conccheck}},
}

type goldenCase struct {
	name    string
	fixture string
	relDir  string // re-homes the fixture into a scoped analyzer's directory
	program bool
	run     []*Analyzer
}

// loadFixture parses and type-checks one testdata fixture with a fresh
// loader (fresh because some cases override the package's RelDir to
// re-home it into an analyzer's scope).
func loadFixture(t *testing.T, fixture string) (*Loader, *Package) {
	t.Helper()
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(fixture)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", fixture, err)
	}
	return loader, pkg
}

// runCase loads tc's fixture, re-homed to tc.relDir, runs analyzers
// over it in tc's mode, and renders the findings that the analyzers
// named in tc.run report, one per line, sorted.
func runCase(t *testing.T, tc goldenCase, analyzers []*Analyzer) string {
	t.Helper()
	loader, pkg := loadFixture(t, tc.fixture)
	if tc.relDir != "" {
		pkg.RelDir = tc.relDir
	}
	runner := &Runner{Loader: loader, Analyzers: analyzers}
	var findings []Finding
	if tc.program {
		findings = runner.RunProgram()
	} else {
		findings = runner.RunPackage(pkg)
	}
	named := map[string]bool{}
	for _, a := range tc.run {
		named[a.Name] = true
	}
	SortFindings(findings)
	var b strings.Builder
	for _, f := range findings {
		if named[f.Analyzer] {
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func goldenPath(tc goldenCase) string {
	return filepath.Join("testdata", "golden", tc.name+".golden")
}

// TestGoldenMessages pins every analyzer's full rendered output on its
// fixture, one golden file per analyzer.
func TestGoldenMessages(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := runCase(t, tc, tc.run)
			path := goldenPath(tc)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("rendered findings diverge from %s (re-run with -update if the change is intended)\n--- got ---\n%s--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// checkAlongsideAll runs every analyzer in All over each fixture of the
// given mode, as the gate does, and checks that the case's analyzers
// report exactly their golden: the pinned output does not depend on
// running an analyzer alone, and a fixture that pins nothing fails.
func checkAlongsideAll(t *testing.T, program bool) {
	for _, tc := range goldenCases {
		if tc.program != program {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(tc))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s pins no finding", goldenPath(tc))
			}
			if got := runCase(t, tc, All); got != string(want) {
				t.Errorf("findings with every analyzer running diverge from %s\n--- got ---\n%s--- want ---\n%s",
					goldenPath(tc), got, want)
			}
		})
	}
}

// TestAnalyzersOnFixtures checks the package-mode fixtures with the
// whole suite running (see checkAlongsideAll).
func TestAnalyzersOnFixtures(t *testing.T) { checkAlongsideAll(t, false) }

// TestProgramAnalyzersOnFixtures checks the whole-program fixtures with
// the whole suite running. The plaintaint fixture is a deliberately
// leaky fake mediator covering every edge kind the call graph follows
// (direct call, closure, method value, goroutine, defer, interface
// dispatch) plus the sanitizer cut, the boundary rule and the
// annotation-misuse reports.
func TestProgramAnalyzersOnFixtures(t *testing.T) { checkAlongsideAll(t, true) }

// TestGoldenCoverage checks that the one oracle skips no analyzer and
// that no golden file is orphaned: every analyzer in All runs in at
// least one case, and every testdata/golden/*.golden file has a case.
func TestGoldenCoverage(t *testing.T) {
	covered := map[*Analyzer]bool{}
	cases := map[string]bool{}
	for _, tc := range goldenCases {
		cases[tc.name] = true
		for _, a := range tc.run {
			covered[a] = true
		}
	}
	for _, a := range All {
		if !covered[a] {
			t.Errorf("analyzer %s has no golden case", a.Name)
		}
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		if name := strings.TrimSuffix(filepath.Base(g), ".golden"); !cases[name] {
			t.Errorf("%s has no golden case", g)
		}
	}
}
