package seclint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot is the repository root relative to this package directory.
const moduleRoot = "../.."

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

// TestAnalyzersOnFixtures runs each analyzer over its fixture and
// checks the findings against the fixture's `// want "..."` comments:
// every expectation must be matched on its exact file and line, and no
// finding may appear without one.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		name     string
		analyzer *Analyzer
		fixture  string
		// relDir re-homes the fixture into the analyzer's directory
		// scope (e.g. rawexp only runs under internal/crypto).
		relDir string
	}{
		{"weakrand", Weakrand, "testdata/src/weakrand", ""},
		{"weakrand_protocol", Weakrand, "testdata/src/weakrand_protocol", "internal/mediation"},
		{"subtlecmp", Subtlecmp, "testdata/src/subtlecmp", ""},
		{"secretfmt", Secretfmt, "testdata/src/secretfmt", ""},
		{"errdrop", Errdrop, "testdata/src/errdrop", ""},
		{"rawexp", Rawexp, "testdata/src/rawexp", "internal/crypto/fixture"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loader, pkg := loadFixture(t, tc.fixture)
			if tc.relDir != "" {
				pkg.RelDir = tc.relDir
			}
			runner := &Runner{Loader: loader, Analyzers: []*Analyzer{tc.analyzer}}
			findings := runner.RunPackage(pkg)
			wants, err := ParseWants(loader.Fset, pkg.Files)
			if err != nil {
				t.Fatalf("ParseWants: %v", err)
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s carries no want comments", tc.fixture)
			}
			// Wants carry absolute filenames; findings are
			// module-relative. Compare in relative space.
			for i := range wants {
				wants[i].File = pkg.relFile(wants[i].File)
			}
			for _, problem := range CheckWants(findings, wants) {
				t.Error(problem)
			}
		})
	}
}

// TestProgramAnalyzersOnFixtures runs each whole-program analyzer over
// its fixture package and checks the findings against the `// want`
// expectations, exactly like the package-mode test above. The
// plaintaint fixture is a deliberately leaky fake mediator covering
// every edge kind the call graph follows (direct call, closure, method
// value, goroutine, defer, interface dispatch) plus the sanitizer cut,
// the boundary rule and the annotation-misuse reports.
func TestProgramAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		name     string
		analyzer *Analyzer
		fixture  string
		// relDir re-homes the fixture, as in the package-mode test; it
		// must be set before RunProgram so directory-scoped rules (the
		// conccheck bounded-queue perimeter) see the re-homed path.
		relDir string
	}{
		{"plaintaint", Plaintaint, "testdata/src/plaintaint", ""},
		{"keyscope", Keyscope, "testdata/src/keyscope", ""},
		{"cttaint", Cttaint, "testdata/src/cttaint", ""},
		{"conccheck", Conccheck, "testdata/src/conccheck", ""},
		{"conccheck_perimeter", Conccheck, "testdata/src/conccheck_perimeter", "internal/session"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loader, pkg := loadFixture(t, tc.fixture)
			if tc.relDir != "" {
				pkg.RelDir = tc.relDir
			}
			runner := &Runner{Loader: loader, Analyzers: []*Analyzer{tc.analyzer}}
			findings := runner.RunProgram()
			wants, err := ParseWants(loader.Fset, pkg.Files)
			if err != nil {
				t.Fatalf("ParseWants: %v", err)
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s carries no want comments", tc.fixture)
			}
			for i := range wants {
				wants[i].File = pkg.relFile(wants[i].File)
			}
			for _, problem := range CheckWants(findings, wants) {
				t.Error(problem)
			}
		})
	}
}

// TestTaintTraceMessage pins the shape of a taint trace: the finding
// message must carry the full entry→source call path, including the
// creator-attributed name of a closure along the way.
func TestTaintTraceMessage(t *testing.T) {
	loader, _ := loadFixture(t, "testdata/src/plaintaint")
	runner := &Runner{Loader: loader, Analyzers: []*Analyzer{Plaintaint}}
	findings := runner.RunProgram()
	for _, path := range []string{
		"plaintaint.(*Mediator).HandleSession -> plaintaint.direct -> plaintaint.decryptTuple",
		"plaintaint.viaClosure -> plaintaint.viaClosure.func@",
	} {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, path) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding carries the call path %q; findings:\n%v", path, findings)
		}
	}
}

// TestPlaintaintRealTree is the satellite regression test for the real
// module: without the allowlist, the only plaintext sources reachable
// from a mediator entry point must be the ones in the declared
// plaintext-baseline file, every finding must carry a full call path,
// and keyscope must be silent (no key material at the mediator or on a
// link anywhere in the tree).
func TestPlaintaintRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := WalkPackageDirs(loader.RootDir)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Loader: loader, Analyzers: []*Analyzer{Plaintaint, Keyscope}}
	findings, err := runner.RunDirs(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("expected plaintaint findings for the plaintext baseline; the allowlisted leak must stay visible without the allowlist")
	}
	for _, f := range findings {
		if f.Analyzer != "plaintaint" {
			t.Errorf("unexpected %s finding on the real tree: %s", f.Analyzer, f)
			continue
		}
		if f.File != "internal/mediation/baselines.go" {
			t.Errorf("plaintext reachable outside the declared baseline: %s", f)
		}
		if !strings.Contains(f.Message, "[path ") || !strings.Contains(f.Message, " -> ") {
			t.Errorf("finding lacks a full call path: %s", f)
		}
	}
}

// TestFindingPositions pins one exact position per analyzer, so a
// traversal change that shifts report anchors fails loudly rather than
// only through regex matching.
func TestFindingPositions(t *testing.T) {
	loader, pkg := loadFixture(t, "testdata/src/subtlecmp")
	runner := &Runner{Loader: loader, Analyzers: []*Analyzer{Subtlecmp}}
	findings := runner.RunPackage(pkg)
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3: %v", len(findings), findings)
	}
	SortFindings(findings)
	first := findings[0]
	if first.File != "internal/seclint/testdata/src/subtlecmp/subtlecmp.go" {
		t.Errorf("File = %q", first.File)
	}
	if first.Line != 13 || first.Col != 9 {
		t.Errorf("position = %d:%d, want 13:9", first.Line, first.Col)
	}
	if first.Analyzer != "subtlecmp" {
		t.Errorf("Analyzer = %q", first.Analyzer)
	}
	if want := `bytes.Equal on secret material "tag"`; !strings.Contains(first.Message, want) {
		t.Errorf("Message = %q, want substring %q", first.Message, want)
	}
}

func writeAllow(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seclint.allow")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAllowlistSuppression checks the full Filter/Unused cycle: a
// matching entry silences its finding, a stale entry surfaces as an
// "allowlist" finding pointing at its own line.
func TestAllowlistSuppression(t *testing.T) {
	path := writeAllow(t, `# audited exceptions
weakrand internal/seclint/testdata/src/weakrand/... -- fixture exercises the analyzer
subtlecmp cmd/nowhere/*.go -- stale entry that matches nothing
`)
	al, err := ParseAllowlist(path)
	if err != nil {
		t.Fatalf("ParseAllowlist: %v", err)
	}
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Loader: loader, Analyzers: []*Analyzer{Weakrand}, Allow: al}
	findings, err := runner.RunDirs([]string{"testdata/src/weakrand"})
	if err != nil {
		t.Fatalf("RunDirs: %v", err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the unused-entry one: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "allowlist" {
		t.Errorf("Analyzer = %q, want allowlist", f.Analyzer)
	}
	if f.Line != 3 {
		t.Errorf("Line = %d, want 3 (the stale entry)", f.Line)
	}
	if !strings.Contains(f.Message, "unused allowlist entry") {
		t.Errorf("Message = %q", f.Message)
	}
}

// TestAllowlistGlobForms covers both pattern styles.
func TestAllowlistGlobForms(t *testing.T) {
	e := &AllowEntry{Analyzer: "errdrop", Pattern: "internal/mediation/..."}
	if !e.matches("errdrop", "internal/mediation/local.go") {
		t.Error("prefix pattern missed subtree file")
	}
	if e.matches("errdrop", "internal/mediationx/local.go") {
		t.Error("prefix pattern must not match sibling directory")
	}
	if e.matches("weakrand", "internal/mediation/local.go") {
		t.Error("entry must be analyzer-scoped")
	}
	g := &AllowEntry{Analyzer: "errdrop", Pattern: "internal/*/local.go"}
	if !g.matches("errdrop", "internal/mediation/local.go") {
		t.Error("glob pattern missed")
	}
	if g.matches("errdrop", "internal/a/b/local.go") {
		t.Error("single * must not cross separators")
	}
}

// TestAllowlistRejectsMalformed checks that entries without a
// justification, with bad shape, or naming unknown analyzers are load
// errors — an unauditable allowlist must not silently parse.
func TestAllowlistRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"weakrand internal/foo.go\n",                   // no justification
		"weakrand internal/foo.go --\n",                // empty justification
		"weakrand -- missing pattern\n",                // wrong field count
		"nosuch internal/foo.go -- justification\n",    // unknown analyzer
		"weakrand internal/[foo.go -- justification\n", // malformed glob
	} {
		path := writeAllow(t, bad)
		if _, err := ParseAllowlist(path); err == nil {
			t.Errorf("ParseAllowlist accepted %q", bad)
		}
	}
}

func TestIdentWords(t *testing.T) {
	cases := []struct {
		name   string
		secret bool
	}{
		{"sessionKey", true},
		{"WrappedKey", true},
		{"HMACKey", true},
		{"mac_tag", true},
		{"tagOf", true},
		{"macro", false}, // "mac" must match as a word, not a prefix
		{"message", false},
		{"keyPath", false},       // neutral word: a location, not material
		{"sessionKeyLen", false}, // neutral word: a public constant
		{"keyCount", false},
		{"row", false},
	}
	for _, tc := range cases {
		if got := isSecretName(tc.name); got != tc.secret {
			t.Errorf("isSecretName(%q) = %v, want %v (words %v)", tc.name, got, tc.secret, identWords(tc.name))
		}
	}
}

func TestParseVerbs(t *testing.T) {
	got := parseVerbs("a %d b %*x c %% %[1]v %s")
	// %d → arg0; %*x consumes the width arg1 and formats arg2; %% none;
	// %[1]v resets to arg0; %s continues at arg1.
	want := []verbUse{{'d', 0}, {'x', 2}, {'v', 0}, {'s', 1}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("verb %d: got %v, want %v", i, got[i], want[i])
		}
	}
}
