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
// findings are pinned. Where the want-comment tests check that findings
// appear at the expected positions matching regexps, the goldens pin
// the exact rendered message text: a wording change — even one the
// regexps still match — must show up in review as a golden diff,
// because downstream tooling (the allowlist audit flow, SARIF
// consumers, grep-driven triage) keys on these strings.
var goldenCases = []struct {
	name    string
	fixture string
	relDir  string // re-homes scoped analyzers, as in the fixture tests
	program bool
	run     []*Analyzer
}{
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

// TestGoldenMessages pins every analyzer's full rendered output on its
// fixture, one golden file per analyzer.
func TestGoldenMessages(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			loader, pkg := loadFixture(t, tc.fixture)
			if tc.relDir != "" {
				pkg.RelDir = tc.relDir
			}
			runner := &Runner{Loader: loader, Analyzers: tc.run}
			var findings []Finding
			if tc.program {
				findings = runner.RunProgram()
			} else {
				findings = runner.RunPackage(pkg)
			}
			SortFindings(findings)
			var b strings.Builder
			for _, f := range findings {
				b.WriteString(f.String())
				b.WriteByte('\n')
			}
			got := b.String()

			path := filepath.Join("testdata", "golden", tc.name+".golden")
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
