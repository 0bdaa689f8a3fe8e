package secmediation_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestNoOrphanInternalPackages guards the ROADMAP invariant "no package
// nothing imports": every internal/... package must be imported by the
// non-test files of some other package in the module. A package reachable
// only from _test.go files (or from nothing) is dead weight that still
// costs every tier-1 run its build and tests.
func TestNoOrphanInternalPackages(t *testing.T) {
	pkgs := nonTestImports(t)
	imported := map[string]bool{}
	for _, imps := range pkgs {
		for _, imp := range imps {
			imported[imp] = true
		}
	}
	for pkg := range pkgs {
		if strings.Contains(pkg, "/internal/") && !imported[pkg] {
			t.Errorf("%s has no importer among non-test files", pkg)
		}
	}
}

// TestOneMessageContract guards the one message contract: a link sends
// a codec.Encodable and receives a codec.Decodable. It fails when
// non-test code imports "encoding", whose BinaryMarshaler interfaces
// would give a message a second contract, or imports "encoding/gob"
// outside bench/ and internal/transport, which keeps gob only for the
// frozen benchmark's payloads.
func TestOneMessageContract(t *testing.T) {
	for pkg, imps := range nonTestImports(t) {
		rel := strings.TrimPrefix(pkg, module+"/")
		gobAllowed := rel == "internal/transport" || rel == "bench" || strings.HasPrefix(rel, "bench/")
		for _, imp := range imps {
			switch {
			case imp == "encoding":
				t.Errorf("%s imports encoding: encode messages through codec.Encodable and codec.Decodable", pkg)
			case imp == "encoding/gob" && !gobAllowed:
				t.Errorf("%s imports encoding/gob: encode messages through codec.Encodable and codec.Decodable", pkg)
			}
		}
	}
}

// module is the module path.
const module = "github.com/secmediation/secmediation"

// nonTestImports maps every package of the module to the packages its
// non-test files import.
func nonTestImports(t *testing.T) map[string][]string {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	pkgs := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		pkgs[fields[0]] = fields[1:]
	}
	return pkgs
}

// benchOnly lists the symbols only the frozen benchmark may use, by
// package path below the module: a function's name, or "Type.Field" for
// a field. Protocol code counts R_C with das.SelectRuns, partitions
// with das.EquiDepthPartitions, frames with transport.NewMessage and
// retries with resilience.Do; no party reads the deprecated Params
// fields.
var benchOnly = map[string][]string{
	"internal/das":                {"ExecuteServerQuery", "ServerResult.Pairs", "PartitionDomain", "EncryptRelation"},
	"internal/transport":          {"Encode", "DialRetry"},
	"internal/mediation":          {"Params.PayloadMode", "Params.Buckets", "Params.Strategy"},
	"internal/crypto/hybrid":      {"NewReceiver"},
	"internal/pm":                 {"NewCodec"},
	"internal/crypto/commutative": {"GenerateKey"},
}

// TestBenchOnlySymbolsStayFenced fails when non-test code outside bench/
// and a bench-only symbol's own package refers to that symbol (ROADMAP
// 1d). It type-checks every module package against the build cache's
// export data, so a use through a value of another package's making is
// caught as well as a qualified name. It also requires bench/ to use
// every listed symbol, so a symbol that loses its last user gets
// deleted instead of fenced.
func TestBenchOnlySymbolsStayFenced(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	out, err := exec.Command("go", "list", "-export", "-deps", "-f",
		`{{.ImportPath}}|{{.Export}}|{{with .Module}}{{.Path}}{{end}}|{{.Dir}}|{{join .GoFiles ","}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	export := map[string]string{}
	type pkg struct {
		path, dir string
		files     []string
	}
	var pkgs []pkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		export[f[0]] = f[1]
		if f[2] == module && f[4] != "" {
			pkgs = append(pkgs, pkg{f[0], f[3], strings.Split(f[4], ",")})
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(export[path]) })
	benchUses := map[string]int{}
	for _, p := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.path, module), "/")
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: imp}).Check(p.path, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		for id, obj := range info.Uses {
			sym := benchOnlySymbol(obj)
			switch {
			case sym == "" || strings.HasPrefix(sym, rel+"."):
			case rel == "bench":
				benchUses[sym]++
			default:
				t.Errorf("%s uses the bench-only %s", fset.Position(id.Pos()), sym)
			}
		}
	}
	for dir, names := range benchOnly {
		for _, name := range names {
			if benchUses[dir+"."+name] == 0 {
				t.Errorf("bench/ no longer uses %s.%s: delete it rather than fence it", dir, name)
			}
		}
	}
}

// benchOnlySymbol names obj as benchOnly lists it ("internal/das.Name"),
// or returns "" when obj is not listed.
func benchOnlySymbol(obj types.Object) string {
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), module+"/") {
		return ""
	}
	dir := strings.TrimPrefix(obj.Pkg().Path(), module+"/")
	for _, listed := range benchOnly[dir] {
		typ, field, isField := strings.Cut(listed, ".")
		if !isField {
			// A method of the same name is not the listed function.
			if fn, ok := obj.(*types.Func); ok && fn.Name() == listed && fn.Type().(*types.Signature).Recv() == nil {
				return dir + "." + listed
			}
			continue
		}
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() || v.Name() != field {
			continue
		}
		tn := obj.Pkg().Scope().Lookup(typ)
		if tn == nil {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == v {
					return dir + "." + listed
				}
			}
		}
	}
	return ""
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

// docTest matches a test name cited in prose. A citation may be a
// prefix of the tests it means: `-run TestChaos`, or
// TestTable1{Mediator,Client}Leakage, which matches as TestTable1.
var docTest = regexp.MustCompile(`\bTest[A-Z0-9][A-Za-z0-9_]*`)

// testFunc matches a test function's declaration; the capture is its
// name.
var testFunc = regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]*)\(`)

// TestDocsNameRealFiles fails when the living docs name a Go file that
// does not exist, cite a test that no test function of the module
// begins with, or quote a `make` target the Makefile does not define —
// a reader following the reference lands nowhere. The dated
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
	var tests []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			if err == nil {
				err = fs.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			tests = append(tests, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	isTest := func(cited string) bool {
		return slices.ContainsFunc(tests, func(name string) bool { return strings.HasPrefix(name, cited) })
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
			for _, cited := range docTest.FindAllString(line, -1) {
				if !isTest(cited) {
					t.Errorf("%s:%d cites %s, which no test function begins with", doc, i+1, cited)
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
