package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
