package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/secmediation/secmediation/internal/seclint"
)

// emptyAllow returns an allowlist file with no entries, so fixture runs
// are not affected by the repository's real seclint.allow.
func emptyAllow(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "empty.allow")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFixtureExitsNonZero drives the binary entry point over a
// fixture with known findings: exit code 1, the finding printed.
func TestRunFixtureExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-allow", emptyAllow(t), "internal/seclint/testdata/src/weakrand"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "[weakrand] math/rand imported") {
		t.Errorf("stdout missing weakrand finding:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "1 finding(s)") {
		t.Errorf("stderr missing summary: %q", errb.String())
	}
}

// TestRunJSON checks the machine-readable mode round-trips through
// encoding/json with the documented field names.
func TestRunJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-allow", emptyAllow(t), "internal/seclint/testdata/src/weakrand"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	var findings []seclint.Finding
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON finding array: %v\n%s", err, out.String())
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "weakrand" || f.Line == 0 || !strings.HasSuffix(f.File, "weakrand.go") {
		t.Errorf("unexpected finding: %+v", f)
	}
}

// TestRunSARIF checks the -sarif mode emits a schema-conformant
// SARIF 2.1.0 log whose results resolve rule indices, and that the
// exit code still gates the build.
func TestRunSARIF(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-sarif", "-allow", emptyAllow(t), "internal/seclint/testdata/src/weakrand"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not a SARIF log: %v\n%s", err, out.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected log shape: version %q, %d runs", log.Version, len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "seclint" || len(r.Tool.Driver.Rules) != len(seclint.All) {
		t.Errorf("driver %q with %d rules, want seclint with %d",
			r.Tool.Driver.Name, len(r.Tool.Driver.Rules), len(seclint.All))
	}
	if len(r.Results) != 1 {
		t.Fatalf("got %d results, want 1: %s", len(r.Results), out.String())
	}
	res := r.Results[0]
	if res.RuleID != "weakrand" || res.Level != "error" || !strings.Contains(res.Message.Text, "math/rand") {
		t.Errorf("unexpected result: %+v", res)
	}
	if res.RuleIndex < 0 || res.RuleIndex >= len(r.Tool.Driver.Rules) ||
		r.Tool.Driver.Rules[res.RuleIndex].ID != res.RuleID {
		t.Errorf("ruleIndex %d does not resolve to %q", res.RuleIndex, res.RuleID)
	}
	loc := res.Locations[0].PhysicalLocation
	if !strings.HasSuffix(loc.ArtifactLocation.URI, "weakrand.go") || loc.Region.StartLine == 0 {
		t.Errorf("unexpected location: %+v", loc)
	}
}

// TestRunRepoTreeClean is the gate the Makefile relies on: the real
// tree (default ./... patterns with the repository allowlist) must
// produce zero findings.
func TestRunRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var out, errb bytes.Buffer
	code := run(nil, &out, &errb)
	if code != 0 {
		t.Fatalf("seclint on the repository tree: exit %d\n%s%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected output on clean tree: %s", out.String())
	}
}

// TestRunPlaintaintFixture drives the whole-program mode through the
// binary entry point: the leaky fake mediator must fail the run, and
// the printed findings must carry full call paths.
func TestRunPlaintaintFixture(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-allow", emptyAllow(t), "internal/seclint/testdata/src/plaintaint"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "[plaintaint]") {
		t.Errorf("stdout missing plaintaint finding:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "[path plaintaint.(*Mediator).HandleSession -> ") {
		t.Errorf("stdout missing a full taint trace:\n%s", out.String())
	}
}

// TestRunPrune checks -prune rewrites the allowlist in place: the used
// entry and comments survive, the stale entry is dropped, its
// unused-entry finding is resolved by the rewrite, and the run is
// clean.
func TestRunPrune(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "seclint.allow")
	content := `# audited exceptions
weakrand internal/seclint/testdata/src/weakrand/... -- fixture exercises the analyzer
subtlecmp cmd/nowhere/*.go -- stale entry that matches nothing
`
	if err := os.WriteFile(allow, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-prune", "-allow", allow, "internal/seclint/testdata/src/weakrand"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "pruned 1 stale allowlist entry") {
		t.Errorf("stderr missing prune summary: %q", errb.String())
	}
	rewritten, err := os.ReadFile(allow)
	if err != nil {
		t.Fatal(err)
	}
	got := string(rewritten)
	if strings.Contains(got, "subtlecmp") {
		t.Errorf("stale entry survived pruning:\n%s", got)
	}
	if !strings.Contains(got, "# audited exceptions") || !strings.Contains(got, "weakrand internal/seclint") {
		t.Errorf("pruning dropped lines it must keep:\n%s", got)
	}
	// A second prune run must be a no-op on an already-clean file.
	var out2, errb2 bytes.Buffer
	if code := run([]string{"-prune", "-allow", allow, "internal/seclint/testdata/src/weakrand"}, &out2, &errb2); code != 0 {
		t.Fatalf("second -prune run: exit %d\n%s", code, errb2.String())
	}
	after, err := os.ReadFile(allow)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != got {
		t.Errorf("idempotent prune rewrote the file:\nbefore: %q\nafter: %q", got, string(after))
	}
}

// TestRunList covers the analyzer listing used in docs.
func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit code = %d", code)
	}
	for _, name := range []string{"weakrand", "subtlecmp", "secretfmt", "errdrop", "rawexp", "plaintaint", "keyscope", "cttaint", "conccheck"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestRunBadPattern checks usage errors exit 2.
func TestRunBadPattern(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"no/such/dir"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}
