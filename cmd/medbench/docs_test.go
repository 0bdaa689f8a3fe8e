package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wrap matches the space between two words of a citation, including a
// line wrap inside a Go or Makefile comment.
const wrap = `\s+(?:(?://|#)\s*)?`

// Citations of this command that a doc or comment can get wrong.
var (
	tableRef    = regexp.MustCompile(`medbench` + wrap + `-table` + wrap + `([\w|]+)`)
	artifactRef = regexp.MustCompile(`BENCH_\w+\.json`)
	reportRef   = regexp.MustCompile(`make` + wrap + `([a-z-]+-report)\b`)
)

// TestDocsNameRealTables fails when a document or a Go comment cites a
// medbench table that `tables` lacks, a BENCH artifact that is not in the
// repository root, or a report target the Makefile lacks. ROADMAP.md,
// CHANGES.md and ISSUE.md are history and bench/ names its own
// predecessors, so none of them is scanned.
func TestDocsNameRealTables(t *testing.T) {
	root := filepath.Join("..", "..")
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile",
		filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() && (rel == "bench" || strings.HasPrefix(d.Name(), ".") && rel != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(rel, ".go") ||
			filepath.Dir(rel) == "docs" && strings.HasSuffix(rel, ".md")) {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	known := make(map[string]bool)
	for _, name := range tableNames() {
		known[name] = true
	}
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	inPackageComment := make(map[string]bool)
	for _, rel := range files {
		blob, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		text := string(blob)
		at := func(offset int) string {
			return fmt.Sprintf("%s:%d", rel, 1+strings.Count(text[:offset], "\n"))
		}
		for _, m := range tableRef.FindAllStringSubmatchIndex(text, -1) {
			for _, name := range strings.Split(text[m[2]:m[3]], "|") {
				if !known[name] {
					t.Errorf("%s cites `medbench -table %s`; medbench accepts only %s",
						at(m[0]), name, strings.Join(tableNames(), "|"))
				}
				if rel == filepath.Join("cmd", "medbench", "main.go") {
					inPackageComment[name] = true
				}
			}
		}
		for _, m := range artifactRef.FindAllStringIndex(text, -1) {
			if _, err := os.Stat(filepath.Join(root, text[m[0]:m[1]])); err != nil {
				t.Errorf("%s cites %s, which is not in the repository root", at(m[0]), text[m[0]:m[1]])
			}
		}
		for _, m := range reportRef.FindAllStringSubmatchIndex(text, -1) {
			target := text[m[2]:m[3]]
			if !bytes.Contains(makefile, []byte("\n"+target+":")) {
				t.Errorf("%s cites `make %s`; the Makefile has no such target", at(m[0]), target)
			}
		}
	}
	for _, name := range tableNames() {
		if !inPackageComment[name] {
			t.Errorf("the package comment of cmd/medbench/main.go does not list `medbench -table %s`", name)
		}
	}
}
