package seclint

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// AllowEntry is one suppression rule: findings from Analyzer whose file
// matches Pattern are dropped. Every entry must carry a justification;
// entries that match nothing are themselves reported, so the allowlist
// cannot silently rot.
type AllowEntry struct {
	Analyzer      string
	Pattern       string // path glob, or prefix when ending in /...
	Justification string
	Line          int
	used          bool
}

// Allowlist is a parsed seclint.allow file. Format, one rule per line:
//
//	analyzer path/glob -- justification text
//
// '#' starts a comment; blank lines are ignored. A pattern ending in
// "/..." matches the directory prefix; otherwise it is a path.Match
// glob against the slash-separated file path relative to the module
// root.
type Allowlist struct {
	Path    string
	Entries []*AllowEntry
}

// ParseAllowlist reads and parses an allowlist file.
func ParseAllowlist(file string) (*Allowlist, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	al := &Allowlist{Path: file}
	for i, line := range strings.Split(string(data), "\n") {
		if idx := strings.Index(line, "#"); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		rule, just, ok := strings.Cut(line, "--")
		just = strings.TrimSpace(just)
		if !ok || just == "" {
			return nil, fmt.Errorf("%s:%d: allowlist entry needs a justification after \"--\"", file, i+1)
		}
		fields := strings.Fields(rule)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: allowlist entry must be \"analyzer path-glob -- justification\"", file, i+1)
		}
		known := false
		for _, a := range All {
			if a.Name == fields[0] {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("%s:%d: unknown analyzer %q", file, i+1, fields[0])
		}
		if _, err := path.Match(fields[1], "probe"); err != nil {
			return nil, fmt.Errorf("%s:%d: bad pattern %q: %v", file, i+1, fields[1], err)
		}
		al.Entries = append(al.Entries, &AllowEntry{
			Analyzer:      fields[0],
			Pattern:       fields[1],
			Justification: just,
			Line:          i + 1,
		})
	}
	return al, nil
}

// matches reports whether the entry suppresses a finding from analyzer
// in file (a slash path relative to the module root).
func (e *AllowEntry) matches(analyzer, file string) bool {
	if e.Analyzer != analyzer {
		return false
	}
	if prefix, ok := strings.CutSuffix(e.Pattern, "/..."); ok {
		return file == prefix || strings.HasPrefix(file, prefix+"/")
	}
	ok, err := path.Match(e.Pattern, file)
	return err == nil && ok
}

// Filter drops findings suppressed by the allowlist, marking the
// entries that fired.
func (al *Allowlist) Filter(findings []Finding) []Finding {
	if al == nil {
		return findings
	}
	var kept []Finding
	for _, f := range findings {
		suppressed := false
		for _, e := range al.Entries {
			if e.matches(f.Analyzer, f.File) {
				e.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	return kept
}

// Unused returns one finding per allowlist entry that suppressed
// nothing during Filter; stale entries must be deleted, not
// accumulated. The findings name the allowlist file relative to the
// module root when it lies under root, and as given otherwise.
func (al *Allowlist) Unused(root string) []Finding {
	if al == nil {
		return nil
	}
	file := al.Path
	if abs, err := filepath.Abs(al.Path); err == nil {
		if rel, ok := relPath(root, abs); ok {
			file = rel
		}
	}
	var out []Finding
	for _, e := range al.Entries {
		if !e.used {
			out = append(out, Finding{
				Analyzer: "allowlist",
				File:     file,
				Line:     e.Line,
				Col:      1,
				Message:  fmt.Sprintf("unused allowlist entry %q %q: no finding suppressed; remove it", e.Analyzer, e.Pattern),
			})
		}
	}
	return out
}
