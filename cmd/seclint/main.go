// Command seclint runs the crypto-invariant static-analysis suite
// (internal/seclint) over module packages and gates the build on the
// result.
//
// Usage:
//
//	seclint [-allow file] [-list] [patterns...]
//
// Patterns default to ./... (every package under the module root,
// excluding testdata). A pattern "dir/..." analyzes the subtree; a bare
// directory analyzes that one package — including testdata fixtures,
// which is how the driver is exercised in its own tests.
//
// Findings print one per line as file:line:col: [analyzer] message.
// Exit status: 0 when no findings, 1 when findings were reported,
// 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/secmediation/secmediation/internal/seclint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("seclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	allowFile := fs.String("allow", "", "allowlist file (default: seclint.allow at the module root, if present)")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range seclint.All {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "seclint: %v\n", err)
		return 2
	}
	loader, err := seclint.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "seclint: %v\n", err)
		return 2
	}

	var allow *seclint.Allowlist
	switch {
	case *allowFile != "":
		allow, err = seclint.ParseAllowlist(*allowFile)
	default:
		def := filepath.Join(root, "seclint.allow")
		if _, statErr := os.Stat(def); statErr == nil {
			allow, err = seclint.ParseAllowlist(def)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "seclint: %v\n", err)
		return 2
	}

	dirs, err := expandPatterns(root, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "seclint: %v\n", err)
		return 2
	}

	runner := &seclint.Runner{Loader: loader, Analyzers: seclint.All, Allow: allow}
	findings, err := runner.RunDirs(dirs)
	if err != nil {
		fmt.Fprintf(stderr, "seclint: %v\n", err)
		return 2
	}

	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "seclint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expandPatterns resolves command-line patterns to package directories.
// "./..." and "dir/..." walk subtrees (skipping testdata); a bare
// directory is taken verbatim, so fixtures can be targeted explicitly.
func expandPatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(ds ...string) {
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := root
			if rest != "." && rest != "" {
				base = filepath.Join(root, filepath.FromSlash(rest))
			}
			sub, err := seclint.WalkPackageDirs(base)
			if err != nil {
				return nil, fmt.Errorf("pattern %q: %w", pat, err)
			}
			add(sub...)
			continue
		}
		dir := filepath.Join(root, filepath.FromSlash(pat))
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("pattern %q: not a package directory under the module root", pat)
		}
		add(dir)
	}
	return dirs, nil
}
