// Package seclint is a stdlib-only static-analysis suite for the
// crypto-invariants this codebase's security argument rests on. The Go
// compiler cannot see that join matching must operate on ciphertexts
// only, that protocol randomness must come from crypto/rand, or that
// key/tag equality must not leak timing — seclint can, and `make lint`
// runs it as a tier-1 gate so every future performance PR stays honest.
//
// The suite is built on go/ast, go/parser and go/types exclusively (no
// module dependencies, works offline). Each analyzer lives in its own
// file with a testdata fixture whose rendered findings are pinned by a
// golden file; audited exceptions go into the module-root seclint.allow
// file, one justified entry per finding. See docs/STATIC_ANALYSIS.md
// for the paper-level rationale of every invariant.
package seclint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one diagnostic: an invariant violation at a position.
type Finding struct {
	Analyzer string
	// File is the module-relative, slash-separated path.
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the conventional file:line:col: [analyzer] message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one named invariant check. Package-mode analyzers set
// Run and are invoked once per type-checked package; program-mode
// analyzers set RunProgram and are invoked once over the whole-module
// call graph (see program.go). Exactly one of the two is set.
type Analyzer struct {
	// Name identifies the analyzer in findings and allowlist entries.
	Name string
	// Doc is a one-line description shown by the driver.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunProgram inspects the whole-program call graph.
	RunProgram func(*ProgramPass)
}

// All lists every analyzer in the suite, in reporting order.
var All = []*Analyzer{Weakrand, Subtlecmp, Secretfmt, Errdrop, Rawexp, Plaintaint, Keyscope, Cttaint, Conccheck}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test files.
	Files []*ast.File
	// Pkg is the loaded package (type info may be partial if
	// type-checking reported errors; analyzers must tolerate nil types).
	Pkg  *Package
	Info *types.Info

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		File:     p.Pkg.relFile(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries one (analyzer, whole-program) unit of work.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Program  *Program

	report func(Finding)
}

// Reportf records a finding at pos; pkg re-homes the filename into
// module-relative form (findings outside any package keep the raw path).
func (p *ProgramPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	file := filepath.ToSlash(position.Filename)
	if pkg != nil {
		file = pkg.relFile(position.Filename)
	}
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InDir reports whether the package lives in the module-relative
// directory prefix (e.g. "internal/crypto" matches internal/crypto and
// internal/crypto/hybrid).
func (p *Pass) InDir(prefix string) bool {
	return p.Pkg.RelDir == prefix || strings.HasPrefix(p.Pkg.RelDir, prefix+"/")
}

// TypeOf returns the static type of e, or nil when type information is
// unavailable (analyzers degrade gracefully on type-check errors).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// Package is one loaded, type-checked module package.
type Package struct {
	// ImportPath is the full import path.
	ImportPath string
	// RelDir is the module-relative directory, slash-separated; "" for
	// the module root package.
	RelDir string
	// Dir is the absolute directory.
	Dir string
	// Files holds the parsed non-test files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package (possibly incomplete).
	Types *types.Package
	// Info holds the type-checker's expression/object maps.
	Info *types.Info
	// TypeErrors collects non-fatal type-check diagnostics.
	TypeErrors []error

	rootDir string
}

// relFile maps an absolute filename into module-relative slash form.
func (p *Package) relFile(filename string) string {
	if rel, ok := relPath(p.rootDir, filename); ok {
		return rel
	}
	return filepath.ToSlash(filename)
}

// relPath maps an absolute filename under root into root-relative
// slash form; ok is false when the file lies outside root.
func relPath(root, filename string) (rel string, ok bool) {
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", false
	}
	return filepath.ToSlash(rel), true
}

// Loader parses and type-checks module packages. Intra-module imports
// resolve recursively from source; standard-library imports go through
// the go/importer "source" importer, so the loader needs no compiled
// export data and works fully offline.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	RootDir    string

	std     types.Importer
	pkgs    map[string]*Package // keyed by cleaned absolute dir
	loading map[string]bool
}

// NewLoader builds a loader rooted at the module directory containing
// go.mod.
func NewLoader(rootDir string) (*Loader, error) {
	abs, err := filepath.Abs(rootDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks dependencies from GOROOT sources;
	// with cgo disabled it picks the pure-Go fallbacks (e.g. netgo), so
	// no cgo toolchain invocation is ever needed.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		RootDir:    abs,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("seclint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("seclint: no module directive in %s", gomod)
}

// LoadDir parses and type-checks the package in dir (non-test files
// only). Results are memoized; type-check errors are collected on the
// package rather than failing the load, so analyzers always run.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	abs = filepath.Clean(abs)
	if pkg, ok := l.pkgs[abs]; ok {
		return pkg, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("seclint: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		filenames = append(filenames, name)
	}
	sort.Strings(filenames)
	if len(filenames) == 0 {
		return nil, fmt.Errorf("seclint: no non-test Go files in %s", abs)
	}
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("seclint: %w", err)
		}
		files = append(files, f)
	}

	rel, err := filepath.Rel(l.RootDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("seclint: %s is outside module root %s", abs, l.RootDir)
	}
	relDir := filepath.ToSlash(rel)
	importPath := l.ModulePath
	if relDir != "." {
		importPath = l.ModulePath + "/" + relDir
	} else {
		relDir = ""
	}

	pkg := &Package{
		ImportPath: importPath,
		RelDir:     relDir,
		Dir:        abs,
		Files:      files,
		rootDir:    l.RootDir,
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer:    (*loaderImporter)(l),
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns a usable (if incomplete) *types.Package even when
	// it reports errors; analyzers tolerate missing type info. Errors
	// normally arrive through conf.Error above, but keep the returned
	// one too in case Check bails before reporting.
	typesPkg, checkErr := conf.Check(importPath, l.Fset, files, pkg.Info)
	pkg.Types = typesPkg
	if checkErr != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, checkErr)
	}
	l.pkgs[abs] = pkg
	return pkg, nil
}

// Packages returns every package loaded so far, sorted by import path.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out
}

// loaderImporter routes intra-module imports back into the loader and
// everything else to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.RootDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// WalkPackageDirs returns every package directory (≥1 non-test .go
// file) under root, skipping testdata, vendor and hidden directories.
func WalkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// WalkDir visits files in order, so duplicates are already adjacent.
	out := dirs[:0]
	for _, d := range dirs {
		if len(out) == 0 || out[len(out)-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}

// Runner drives analyzers over packages and applies the allowlist.
type Runner struct {
	Loader    *Loader
	Analyzers []*Analyzer
	// Allow is the optional audited-exception list.
	Allow *Allowlist
}

// RunPackage runs every package-mode analyzer over one loaded package.
func (r *Runner) RunPackage(pkg *Package) []Finding {
	var out []Finding
	for _, a := range r.Analyzers {
		if a.Run == nil {
			continue // program-mode analyzers run via RunProgram
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     r.Loader.Fset,
			Files:    pkg.Files,
			Pkg:      pkg,
			Info:     pkg.Info,
			report:   func(f Finding) { out = append(out, f) },
		}
		a.Run(pass)
	}
	return out
}

// RunProgram builds the whole-module call graph from every package the
// loader has seen (requested directories plus their transitive
// intra-module imports) and runs the program-mode analyzers over it.
func (r *Runner) RunProgram() []Finding {
	var programMode []*Analyzer
	for _, a := range r.Analyzers {
		if a.RunProgram != nil {
			programMode = append(programMode, a)
		}
	}
	if len(programMode) == 0 {
		return nil
	}
	prog := BuildProgram(r.Loader.Fset, r.Loader.Packages())
	var out []Finding
	for _, a := range programMode {
		pass := &ProgramPass{
			Analyzer: a,
			Fset:     r.Loader.Fset,
			Program:  prog,
			report:   func(f Finding) { out = append(out, f) },
		}
		a.RunProgram(pass)
	}
	return out
}

// RunDirs loads and analyzes each directory (package mode per package,
// then program mode over the combined call graph), filters findings
// through the allowlist, appends unused-allowlist-entry findings, and
// returns the result sorted by position.
func (r *Runner) RunDirs(dirs []string) ([]Finding, error) {
	var out []Finding
	for _, dir := range dirs {
		pkg, err := r.Loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, r.RunPackage(pkg)...)
	}
	out = append(out, r.RunProgram()...)
	if r.Allow != nil {
		out = r.Allow.Filter(out)
		out = append(out, r.Allow.Unused(r.Loader.RootDir)...)
	}
	SortFindings(out)
	return out, nil
}

// SortFindings orders findings by file, line, column, analyzer.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}
