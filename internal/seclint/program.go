package seclint

// program.go is the whole-program half of seclint. BuildProgram
// stitches every package the loader has type-checked into one call
// graph — static calls, method values and other function references,
// closures (a closure belongs to the function that creates it, which is
// what makes `go`/`defer`/callback spawns attributable), and interface
// dispatch resolved against every named type in the module — and then
// answers reachability questions for the role-based analyzers
// (plaintaint, keyscope). The graph is deliberately context-insensitive
// and conservative in one direction: an indirect call through a *named*
// func type is not resolved but recorded, so plaintaint can demand a
// seclint:boundary annotation instead of silently losing the callee.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// externalSources lists functions outside the module whose results are
// plaintext by construction. Keys are "pkgpath.Func" for package
// functions and "(pkgpath.Recv).Method" for methods (interface methods
// included, which is how cipher.AEAD.Open is caught at the call site
// even though its implementation lives in the stdlib).
var externalSources = map[string]string{
	"crypto/rsa.DecryptOAEP":          "RSA decryption output",
	"crypto/rsa.DecryptPKCS1v15":      "RSA decryption output",
	"(crypto/rsa.PrivateKey).Decrypt": "RSA decryption output",
	"(crypto/cipher.AEAD).Open":       "AEAD decryption output",
	"(crypto/cipher.Block).Decrypt":   "block-cipher decryption output",
}

// externalPrivate lists types outside the module that hold private-key
// material, keyed by "pkgpath.Name".
var externalPrivate = map[string]bool{
	"crypto/rsa.PrivateKey":     true,
	"crypto/ecdh.PrivateKey":    true,
	"crypto/ecdsa.PrivateKey":   true,
	"crypto/ed25519.PrivateKey": true,
	"crypto/dsa.PrivateKey":     true,
}

// Fn is one node of the whole-program call graph: a declared function
// or method, a function literal, or a synthetic node standing for a
// known plaintext source outside the module.
type Fn struct {
	// Obj is the function object; nil for function literals.
	Obj *types.Func
	// Lit is the closure body; nil for declared functions.
	Lit *ast.FuncLit
	// Decl is the declaration; nil for literals and external nodes.
	Decl *ast.FuncDecl
	// Pkg is the defining package; nil for external nodes.
	Pkg *Package
	// Parent is the creating function for literals.
	Parent *Fn
	// Name is the short human-readable name used in taint traces,
	// e.g. "mediation.(*Mediator).HandleSession" or "pm.OpenPayload".
	Name string
	Pos  token.Pos

	// Source marks a plaintext source; SourceWhy says what plaintext it
	// yields. Traversal reports the call and does not descend.
	Source    bool
	SourceWhy string
	// Sanitizer marks an audited encrypt boundary; traversal does not
	// descend.
	Sanitizer bool
	// EntryRole is the declared protocol role ("mediator", …) whose
	// reachability this function seeds.
	EntryRole string
	// Wire marks functions that encode their arguments onto a link.
	Wire bool
	// SecretResults marks a function whose results are secret key
	// material (seclint:secret on the func); cttaint taints every call
	// result. SecretParams instead names parameters declared secret.
	SecretResults bool
	SecretWhy     string
	SecretParams  []string
	// Guards marks a function audited to hold a lock across a blocking
	// operation deliberately (an intended serialization point); conccheck
	// suppresses its lock-across-blocking rule inside. GuardsWhy carries
	// the justification (empty means the annotation is malformed).
	Guards    bool
	GuardsWhy string
	// Detached marks a function whose goroutine intentionally outlives
	// supervision (a process-lifetime pump); conccheck accepts spawning
	// it, or any spawn made inside it, without a termination proof.
	Detached    bool
	DetachedWhy string
	// Blocking declares that calling this function may block (a waiting
	// primitive the analysis cannot see through, e.g. behind an
	// interface); conccheck adds it to the blocking table.
	Blocking    bool
	BlockingWhy string

	Edges []Edge
}

// Body returns the function body, or nil for external nodes and
// body-less declarations.
func (fn *Fn) Body() *ast.BlockStmt {
	switch {
	case fn.Decl != nil:
		return fn.Decl.Body
	case fn.Lit != nil:
		return fn.Lit.Body
	}
	return nil
}

// Edge is one call-graph edge, positioned at the call or reference.
type Edge struct {
	Callee *Fn
	Pos    token.Pos
	// Kind is one of call, go, defer, closure, ref, iface.
	Kind string
}

// IndirectCall records a call through a func-typed value the static
// graph cannot follow. Plaintaint requires such calls in
// mediator-reachable code to go through a seclint:boundary-annotated
// named type; calls through unnamed func types are covered by the
// closure creator edges instead.
type IndirectCall struct {
	Fn  *Fn
	Pos token.Pos
	// TypeName is the named func type, nil when the type is unnamed.
	TypeName *types.TypeName
}

// WireCall is one call to a seclint:wire function, kept with its AST so
// keyscope can type-check every argument that crosses the link.
type WireCall struct {
	Fn   *Fn
	Pkg  *Package
	Call *ast.CallExpr
}

// badAnn is a misused seclint: annotation, reported by plaintaint so
// the convention cannot drift.
type badAnn struct {
	Pkg *Package
	Pos token.Pos
	Msg string
}

// ifaceCall is an unresolved interface-method call, resolved against
// the module's named types after all packages are walked.
type ifaceCall struct {
	from *Fn
	m    *types.Func
	pos  token.Pos
}

// traceEdge records how reachability first arrived at a function.
type traceEdge struct {
	from *Fn
	pos  token.Pos
}

// Program is the whole-module call graph plus the annotation facts.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	// All lists every node in deterministic build order.
	All []*Fn
	// Private maps seclint:private type names to their justification.
	Private map[*types.TypeName]string
	// Boundary maps seclint:boundary func type names to their party.
	Boundary map[*types.TypeName]string
	// Indirect records calls through func-typed values.
	Indirect []IndirectCall
	// WireCalls records calls to seclint:wire functions.
	WireCalls []WireCall
	// Bad records misused annotations.
	Bad []badAnn

	fns        map[*types.Func]*Fn
	ext        map[*types.Func]*Fn
	ifaceCalls []ifaceCall
	named      []*types.TypeName

	reachDone   bool
	reach       []*Fn
	reachParent map[*Fn]traceEdge

	reachAllDone   bool
	reachAllParent map[*Fn]traceEdge
}

// BuildProgram assembles the call graph from every loaded package. The
// package list is sorted and files are walked in order, so node and
// edge order — and therefore finding order — is deterministic.
func BuildProgram(fset *token.FileSet, pkgs []*Package) *Program {
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	p := &Program{
		Fset:     fset,
		Pkgs:     sorted,
		Private:  make(map[*types.TypeName]string),
		Boundary: make(map[*types.TypeName]string),
		fns:      make(map[*types.Func]*Fn),
		ext:      make(map[*types.Func]*Fn),
	}
	for _, pkg := range sorted {
		p.declare(pkg)
	}
	for _, pkg := range sorted {
		p.walkBodies(pkg)
	}
	for _, ic := range p.ifaceCalls {
		p.resolveIface(ic)
	}
	return p
}

// declare registers every function declaration and every annotated type
// of one package (pass 1: nodes and facts, no edges yet).
func (p *Program) declare(pkg *Package) {
	if pkg.Info == nil {
		return
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				p.declareFunc(pkg, d)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = d.Doc
					}
					p.declareType(pkg, ts, doc)
				}
			}
		}
	}
}

func (p *Program) declareFunc(pkg *Package, d *ast.FuncDecl) {
	obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
	if obj == nil {
		return // tolerate type-check failures
	}
	fn := &Fn{Obj: obj, Decl: d, Pkg: pkg, Name: shortFuncName(obj), Pos: d.Name.Pos()}
	for _, ann := range parseAnnotations(d.Doc) {
		switch ann.Kind {
		case annSource:
			fn.Source = true
			fn.SourceWhy = textOr(ann.Text, "declared plaintext source")
		case annSanitizer:
			fn.Sanitizer = true
		case annEntry:
			if role := firstField(ann.Text); role != "" {
				fn.EntryRole = role
			} else {
				p.bad(pkg, fn.Pos, "seclint:entry needs a role, e.g. \"seclint:entry mediator\"")
			}
		case annWire:
			fn.Wire = true
		case annSecret:
			// "seclint:secret e d" marks the named parameters; any text
			// that is not exactly a list of parameter names documents why
			// the results are secret instead.
			if names := paramNameSubset(d, ann.Text); names != nil {
				fn.SecretParams = names
			} else {
				fn.SecretResults = true
				fn.SecretWhy = textOr(ann.Text, "declared secret result")
			}
		case annGuards:
			// Justification checked by conccheck, which owns the rule the
			// annotation suppresses.
			fn.Guards = true
			fn.GuardsWhy = ann.Text
		case annDetached:
			fn.Detached = true
			fn.DetachedWhy = ann.Text
		case annBlocking:
			fn.Blocking = true
			fn.BlockingWhy = textOr(ann.Text, "declared blocking")
		case annPrivate, annBoundary:
			p.bad(pkg, fn.Pos, fmt.Sprintf("seclint:%s belongs on a type declaration, not a function", ann.Kind))
		default:
			p.bad(pkg, fn.Pos, fmt.Sprintf("unknown seclint annotation %q", ann.Kind))
		}
	}
	// Exported Mediator methods are protocol entry points by
	// construction; the annotation is only needed for everything else.
	if fn.EntryRole == "" && d.Recv != nil && d.Name.IsExported() &&
		pkg.RelDir == "internal/mediation" && recvTypeName(d) == "Mediator" {
		fn.EntryRole = "mediator"
	}
	p.fns[obj] = fn
	p.All = append(p.All, fn)
}

func (p *Program) declareType(pkg *Package, ts *ast.TypeSpec, doc *ast.CommentGroup) {
	anns := parseAnnotations(doc)
	if len(anns) == 0 {
		return
	}
	obj, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
	if obj == nil {
		return
	}
	for _, ann := range anns {
		switch ann.Kind {
		case annPrivate:
			p.Private[obj] = textOr(ann.Text, "declared private-key material")
		case annBoundary:
			if _, isFunc := obj.Type().Underlying().(*types.Signature); !isFunc {
				p.bad(pkg, ts.Name.Pos(), "seclint:boundary belongs on a named func type")
				continue
			}
			if party := firstField(ann.Text); party != "" {
				p.Boundary[obj] = party
			} else {
				p.bad(pkg, ts.Name.Pos(), "seclint:boundary needs a party, e.g. \"seclint:boundary source\"")
			}
		default:
			p.bad(pkg, ts.Name.Pos(), fmt.Sprintf("seclint:%s is not a type annotation", ann.Kind))
		}
	}
}

func (p *Program) bad(pkg *Package, pos token.Pos, msg string) {
	p.Bad = append(p.Bad, badAnn{Pkg: pkg, Pos: pos, Msg: msg})
}

// walkBodies adds the edges of one package (pass 2). It also collects
// every named type for interface-dispatch resolution.
func (p *Program) walkBodies(pkg *Package) {
	if pkg.Info == nil {
		return
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
			if obj == nil {
				continue
			}
			w := &walker{p: p, pkg: pkg, cur: p.fns[obj]}
			w.scan(d.Body)
		}
		// Every named type participates in interface dispatch.
		for _, decl := range file.Decls {
			g, ok := decl.(*ast.GenDecl)
			if !ok || g.Tok != token.TYPE {
				continue
			}
			for _, spec := range g.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if obj, _ := pkg.Info.Defs[ts.Name].(*types.TypeName); obj != nil {
					p.named = append(p.named, obj)
				}
			}
		}
	}
}

func (p *Program) edge(from, to *Fn, pos token.Pos, kind string) {
	from.Edges = append(from.Edges, Edge{Callee: to, Pos: pos, Kind: kind})
}

func (p *Program) newLit(lit *ast.FuncLit, parent *Fn, pkg *Package) *Fn {
	line := p.Fset.Position(lit.Pos()).Line
	fn := &Fn{
		Lit: lit, Pkg: pkg, Parent: parent,
		Name: fmt.Sprintf("%s.func@%d", parent.Name, line),
		Pos:  lit.Pos(),
	}
	p.All = append(p.All, fn)
	return fn
}

// externalSource returns (creating on first use) the synthetic node for
// a known plaintext source outside the module.
func (p *Program) externalSource(obj *types.Func, why string) *Fn {
	if fn, ok := p.ext[obj]; ok {
		return fn
	}
	fn := &Fn{Obj: obj, Name: shortFuncName(obj), Pos: token.NoPos, Source: true, SourceWhy: why}
	p.ext[obj] = fn
	p.All = append(p.All, fn)
	return fn
}

// walker adds the edges of one function body. cur is the node edges
// come from; function literals switch to a child walker, which is what
// attributes a closure to its creator rather than to its caller.
type walker struct {
	p   *Program
	pkg *Package
	cur *Fn
}

func (w *walker) scan(root ast.Node) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			child := w.p.newLit(n, w.cur, w.pkg)
			w.p.edge(w.cur, child, n.Pos(), "closure")
			(&walker{p: w.p, pkg: w.pkg, cur: child}).scan(n.Body)
			return false
		case *ast.GoStmt:
			w.call(n.Call, "go")
			return false
		case *ast.DeferStmt:
			w.call(n.Call, "defer")
			return false
		case *ast.CallExpr:
			w.call(n, "call")
			return false
		case *ast.SelectorExpr:
			// A selector outside call position may be a method value
			// or a reference to a package function.
			w.ref(n.Sel)
			w.scan(n.X)
			return false
		case *ast.Ident:
			w.ref(n)
			return false
		}
		return true
	})
}

// call resolves one call expression (plain, go, or defer).
func (w *walker) call(call *ast.CallExpr, kind string) {
	for _, a := range call.Args {
		w.scan(a)
	}
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.Ident:
		w.callee(call, f, kind)
	case *ast.SelectorExpr:
		w.scan(f.X)
		w.callee(call, f.Sel, kind)
	case *ast.FuncLit:
		// A directly-invoked literal — most importantly `go func(){…}()`.
		// The edge keeps the invocation kind so conccheck sees the spawn;
		// falling through to the generic scan would file it under
		// "closure" and lose that the literal starts a goroutine.
		child := w.p.newLit(f, w.cur, w.pkg)
		w.p.edge(w.cur, child, f.Pos(), kind)
		(&walker{p: w.p, pkg: w.pkg, cur: child}).scan(f.Body)
	default:
		// Computed callee: a func-typed expression (index, call
		// result, generic instantiation, …). Scan it for function
		// references, and record the indirection.
		w.scan(fun)
		w.indirect(call)
	}
}

// callee handles a call whose callee is the identifier id.
func (w *walker) callee(call *ast.CallExpr, id *ast.Ident, kind string) {
	switch obj := w.pkg.Info.Uses[id].(type) {
	case *types.Func:
		w.funcEdge(obj, id.Pos(), kind)
		if fn, ok := w.p.fns[obj.Origin()]; ok && fn.Wire {
			w.p.WireCalls = append(w.p.WireCalls, WireCall{Fn: w.cur, Pkg: w.pkg, Call: call})
		}
	case *types.Var:
		// A call through a func-typed variable, parameter, or field.
		w.indirect(call)
	}
	// *types.TypeName (a conversion) and *types.Builtin need no edge.
}

// funcEdge adds the edge for a resolved function object: a module
// function, a known external source, or an interface method queued for
// dispatch resolution.
func (w *walker) funcEdge(obj *types.Func, pos token.Pos, kind string) {
	obj = obj.Origin()
	if fn, ok := w.p.fns[obj]; ok {
		w.p.edge(w.cur, fn, pos, kind)
		return
	}
	if why, ok := externalSources[externalKey(obj)]; ok {
		w.p.edge(w.cur, w.p.externalSource(obj, why), pos, kind)
		return
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		w.p.ifaceCalls = append(w.p.ifaceCalls, ifaceCall{from: w.cur, m: obj, pos: pos})
	}
}

// ref records a reference to a function outside call position (a method
// value, a function assigned to a variable, a callback argument).
func (w *walker) ref(id *ast.Ident) {
	if obj, ok := w.pkg.Info.Uses[id].(*types.Func); ok {
		w.funcEdge(obj, id.Pos(), "ref")
	}
}

// indirect records a call the graph cannot follow statically.
func (w *walker) indirect(call *ast.CallExpr) {
	t := w.pkg.Info.TypeOf(call.Fun)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Signature); !ok {
		return // a conversion or a type error, not a func value
	}
	ic := IndirectCall{Fn: w.cur, Pos: call.Fun.Pos()}
	if named, ok := t.(*types.Named); ok {
		ic.TypeName = named.Obj()
	}
	w.p.Indirect = append(w.p.Indirect, ic)
}

// resolveIface connects an interface-method call to every module type
// implementing the interface.
func (p *Program) resolveIface(ic ifaceCall) {
	sig, ok := ic.m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, tn := range p.named {
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
			continue
		}
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, ic.m.Pkg(), ic.m.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if fn, ok := p.fns[m.Origin()]; ok {
			p.edge(ic.from, fn, ic.pos, "iface")
		}
	}
}

// MediatorReachable returns every function reachable from a mediator
// entry point, in BFS order. Sources and sanitizers terminate the
// traversal: a source edge is a finding (reported by plaintaint at the
// call site), a sanitizer edge is declared trust.
func (p *Program) MediatorReachable() []*Fn {
	p.ensureReach()
	return p.reach
}

func (p *Program) ensureReach() {
	if p.reachDone {
		return
	}
	p.reachDone = true
	p.reachParent = make(map[*Fn]traceEdge)
	seen := make(map[*Fn]bool)
	var queue []*Fn
	for _, fn := range p.All {
		if fn.EntryRole == "mediator" && !fn.Source && !fn.Sanitizer {
			seen[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		p.reach = append(p.reach, fn)
		for _, e := range fn.Edges {
			c := e.Callee
			if seen[c] || c.Source || c.Sanitizer {
				continue
			}
			seen[c] = true
			p.reachParent[c] = traceEdge{from: fn, pos: e.Pos}
			queue = append(queue, c)
		}
	}
}

// Trace renders the entry→fn call path reachability followed, e.g.
// "mediation.(*Mediator).HandleSession -> mediation.(*Mediator).handleSession".
func (p *Program) Trace(fn *Fn) string {
	p.ensureReach()
	names := []string{fn.Name}
	for seen := map[*Fn]bool{fn: true}; ; {
		te, ok := p.reachParent[fn]
		if !ok || seen[te.from] {
			break
		}
		fn = te.from
		seen[fn] = true
		names = append(names, fn.Name)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// ensureReachAll runs the reachability BFS seeded from *every* declared
// entry point regardless of role — the traversal conccheck renders its
// spawn-site→entry paths from. It is kept separate from ensureReach so
// the mediator-only analyses (plaintaint, keyscope) are unaffected, and
// unlike them it descends through sources and sanitizers: a goroutine
// leak inside an encrypt boundary is still a leak.
func (p *Program) ensureReachAll() {
	if p.reachAllDone {
		return
	}
	p.reachAllDone = true
	p.reachAllParent = make(map[*Fn]traceEdge)
	seen := make(map[*Fn]bool)
	var queue []*Fn
	for _, fn := range p.All {
		if fn.EntryRole != "" {
			seen[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range fn.Edges {
			c := e.Callee
			if seen[c] {
				continue
			}
			seen[c] = true
			p.reachAllParent[c] = traceEdge{from: fn, pos: e.Pos}
			queue = append(queue, c)
		}
	}
}

// EntryTrace renders the entry→fn call path of the all-roles
// reachability, and whether fn is reachable from any entry point at all.
func (p *Program) EntryTrace(fn *Fn) (string, bool) {
	p.ensureReachAll()
	if _, ok := p.reachAllParent[fn]; !ok && fn.EntryRole == "" {
		return "", false
	}
	names := []string{fn.Name}
	for seen := map[*Fn]bool{fn: true}; ; {
		te, ok := p.reachAllParent[fn]
		if !ok || seen[te.from] {
			break
		}
		fn = te.from
		seen[fn] = true
		names = append(names, fn.Name)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> "), true
}

// containsPrivate reports whether a value of type t can hold
// private-key material, naming the offending type.
func (p *Program) containsPrivate(t types.Type) (string, bool) {
	return p.containsPrivateRec(t, make(map[types.Type]bool))
}

func (p *Program) containsPrivateRec(t types.Type, seen map[types.Type]bool) (string, bool) {
	if t == nil || seen[t] {
		return "", false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if why, ok := p.Private[obj]; ok {
			return fmt.Sprintf("%s (%s)", shortTypeName(obj), why), true
		}
		if obj.Pkg() != nil && externalPrivate[obj.Pkg().Path()+"."+obj.Name()] {
			return shortTypeName(obj), true
		}
		if targs := t.TypeArgs(); targs != nil {
			for i := 0; i < targs.Len(); i++ {
				if name, ok := p.containsPrivateRec(targs.At(i), seen); ok {
					return name, true
				}
			}
		}
		return p.containsPrivateRec(t.Underlying(), seen)
	case *types.Pointer:
		return p.containsPrivateRec(t.Elem(), seen)
	case *types.Slice:
		return p.containsPrivateRec(t.Elem(), seen)
	case *types.Array:
		return p.containsPrivateRec(t.Elem(), seen)
	case *types.Chan:
		return p.containsPrivateRec(t.Elem(), seen)
	case *types.Map:
		if name, ok := p.containsPrivateRec(t.Key(), seen); ok {
			return name, true
		}
		return p.containsPrivateRec(t.Elem(), seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if name, ok := p.containsPrivateRec(t.Field(i).Type(), seen); ok {
				return name, true
			}
		}
	}
	return "", false
}

// shortFuncName renders "pkg.Func" or "pkg.(*Recv).Method".
func shortFuncName(obj *types.Func) string {
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		ptr := ""
		if pt, ok := recv.(*types.Pointer); ok {
			recv = pt.Elem()
			ptr = "*"
		}
		rname := types.TypeString(recv, func(*types.Package) string { return "" })
		rname = strings.TrimPrefix(rname, ".")
		name = "(" + ptr + rname + ")." + name
	}
	if obj.Pkg() != nil {
		name = obj.Pkg().Name() + "." + name
	}
	return name
}

// shortTypeName renders "pkg.Name".
func shortTypeName(obj *types.TypeName) string {
	if obj.Pkg() != nil {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// externalKey renders the externalSources/externalPrivate lookup key
// for a function object.
func externalKey(obj *types.Func) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	path := obj.Pkg().Path()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if pt, ok := recv.(*types.Pointer); ok {
			recv = pt.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			return "(" + path + "." + named.Obj().Name() + ")." + obj.Name()
		}
		return ""
	}
	return path + "." + obj.Name()
}

// recvTypeName extracts the receiver's base type name from a method
// declaration ("Mediator" for func (m *Mediator) …).
func recvTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// paramNameSubset returns the fields of s when every one of them names
// a parameter (or the receiver) of d, and nil otherwise — the rule that
// distinguishes "seclint:secret e d" (marks params) from
// "seclint:secret the drawn exponent" (marks results).
func paramNameSubset(d *ast.FuncDecl, s string) []string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil
	}
	params := make(map[string]bool)
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				params[name.Name] = true
			}
		}
	}
	collect(d.Recv)
	collect(d.Type.Params)
	for _, f := range fields {
		if !params[f] {
			return nil
		}
	}
	return fields
}

// firstField returns the first whitespace-separated field of s.
func firstField(s string) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}
