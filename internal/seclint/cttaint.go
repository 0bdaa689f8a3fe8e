package seclint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// cttaint is the suite's timing-side-channel perimeter: no value
// derived from secret key material may shape the program's execution
// trajectory. It is a flow-sensitive, interprocedural value-taint pass
// over the same whole-program graph plaintaint and keyscope use —
// where plaintaint asks "can plaintext reach the mediator" (a
// confidentiality question about WHO sees values), cttaint asks "can
// secret bits steer execution" (an observability question about what
// timing reveals to anyone on the network path).
//
// Taint sources are declared with seclint:secret — on struct fields
// (commutative exponents, Paillier CRT secrets), on vars, or on
// functions (secret results, or named secret parameters) —
// plus the structural rule that any value of a seclint:private type is
// secret-bearing. Taint propagates through assignments, composite
// literals, calls (by per-function summaries inside the module,
// pass-through outside it), returns, closures (captured objects are
// shared), field/slice/map access, and conversions, to a fixpoint.
//
// Sinks — each finding carries the full secret→sink def-use path:
//
//   - branch conditions (if, switch, select-free case exprs),
//   - loop bounds (for conditions, range over secret-derived counts),
//   - slice/array subscripts (secret-indexed table lookups),
//   - allocation sizes (make with a secret-derived length), and
//   - the declared variable-time math/big surface (Exp's exponent,
//     Cmp, Bit, BitLen, Jacobi, ModInverse), whose running time is
//     operand-dependent by implementation.
//
// Deliberate precision cuts, chosen so the real tree's findings are
// the genuinely interesting ones:
//
//   - Field-sensitivity: k.group.P is public even though k holds a
//     key; only fields that are themselves secret (annotated, written
//     with secret values, or of private type) taint a selection.
//   - error values never carry taint (err != nil steers control on
//     failure shape, not key bits), and comparisons against nil are
//     public (pointer presence, not value bits).
//   - len/cap of a secret-valued container are public: the module
//     sizes its slices by public parameters, and element count is not
//     element bits. Ranging over a secret slice taints the iteration
//     variables, not the loop bound.
//   - Results of seclint:source / seclint:sanitizer functions are
//     message-domain values (plaintexts, ciphertexts), not key bits;
//     taint stops there exactly like plaintaint's traversal does.
//   - A field write globalizes taint (every later selection of that
//     field is secret) only for fields declared in the module; one
//     pem.Block carrying a private-key DER must not taint every
//     pem.Block selection in the tree.
//   - A call through a local variable bound to a function literal uses
//     the literal's own parameter/result summary; only genuinely
//     unresolvable indirect calls fall back to argument pass-through.
//   - Pass-through helpers are call-site sensitive: a summary result
//     that derives from the callee's own parameter is re-derived from
//     the actual argument at each call site, so a converter fed secret
//     exponents by one caller and public moduli by another taints only
//     the former's results. Closures and variadic fan-in keep the
//     context-insensitive behaviour.
//
// What survives on the real tree is the honest residue: the one
// math/big.Exp call with a secret exponent in internal/crypto/modexp,
// whose variable-time behaviour is a documented design choice — with
// modexp.ExpConstantTime as the machine-checked fixed-trajectory
// alternative — plus key-generation-time inversions. Those live in
// seclint.allow with audit rationales; everything else must be clean.
var Cttaint = &Analyzer{
	Name:       "cttaint",
	Doc:        "no secret key material may steer branches, loop bounds, indices, allocation sizes, or variable-time math/big calls",
	RunProgram: runCttaint,
}

// varTimeSig describes one function outside the module whose running
// time depends on operand bit patterns. Keys of bigVarTime are in
// externalKey form.
type varTimeSig struct {
	// recv marks the receiver as timing-relevant.
	recv bool
	// args lists timing-relevant argument indices.
	args []int
	// what names the relevant operand in findings.
	what string
}

// bigVarTime is the declared variable-time math/big surface: these run
// in time dependent on the listed operands' values (loop per bit or
// word, early exit on mismatch, binary-GCD iteration count).
var bigVarTime = map[string]varTimeSig{
	"(math/big.Int).Exp":              {args: []int{1}, what: "exponent"},
	"(math/big.Int).Cmp":              {recv: true, args: []int{0}, what: "compared value"},
	"(math/big.Int).CmpAbs":           {recv: true, args: []int{0}, what: "compared value"},
	"(math/big.Int).Bit":              {recv: true, what: "bit source"},
	"(math/big.Int).BitLen":           {recv: true, what: "length source"},
	"(math/big.Int).TrailingZeroBits": {recv: true, what: "bit source"},
	"math/big.Jacobi":                 {args: []int{0, 1}, what: "operand"},
	"(math/big.Int).ModInverse":       {args: []int{0, 1}, what: "operand"},
}

// ctCause is one hop of a secret→sink def-use chain. prev points
// toward the root (the annotated source); nil prev is the root.
type ctCause struct {
	desc string
	prev *ctCause
	// paramOf/paramIdx mark the hop where taint entered a declared
	// function through its own parameter (receiver-first index),
	// seeded only by seedParams from call-site-accumulated taint.
	// deriveResult keys on these markers to re-derive a pass-through
	// result from the actual argument at each call site.
	paramOf  *types.Func
	paramIdx int
}

// paramMarker returns the hop (nearest the sink) where chain c entered
// fn through one of fn's own parameters, or nil if c does not depend on
// them. fn must be non-nil.
func paramMarker(c *ctCause, fn *types.Func) *ctCause {
	for ; c != nil; c = c.prev {
		if c.paramOf == fn {
			return c
		}
	}
	return nil
}

// root returns the chain's origin — the annotated source description.
func (c *ctCause) root() string {
	for c.prev != nil {
		c = c.prev
	}
	return c.desc
}

// path renders the chain root→sink, compressing repeats and eliding
// the middle of very deep chains.
func (c *ctCause) path() string {
	var hops []string
	for n := c; n != nil; n = n.prev {
		if len(hops) == 0 || hops[len(hops)-1] != n.desc {
			hops = append(hops, n.desc)
		}
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	if len(hops) > 12 {
		hops = append(append(hops[:6:6], "..."), hops[len(hops)-5:]...)
	}
	return strings.Join(hops, " -> ")
}

// ctSummary is the interprocedural fact sheet of one declared
// function: which parameter positions have received taint from any
// call site (receiver first), and which result positions return taint.
type ctSummary struct {
	// owner is the declared function this summary describes; nil for
	// function literals (closures keep context-insensitive summaries).
	owner  *types.Func
	pTaint []*ctCause
	rTaint []*ctCause
}

// ctState is the whole-program fixpoint state.
type ctState struct {
	pass *ProgramPass
	p    *Program
	// taint maps every secret-carrying object (vars, params, fields)
	// to its first-discovered cause; set-once makes the fixpoint
	// monotone and the cause chains acyclic.
	taint map[types.Object]*ctCause
	sums  map[*types.Func]*ctSummary
	// lits maps local func-typed variables to the function literal
	// bound to them (pool := func(...){...}), so calls through them get
	// real summaries (litSums) instead of worst-case pass-through.
	lits    map[types.Object]*ast.FuncLit
	litSums map[*ast.FuncLit]*ctSummary
	// inModule marks the module's own type-checker packages: field
	// writes globalize only for fields declared in the module — one
	// pem.Block carrying a private-key DER must not taint every
	// pem.Block selection in the tree.
	inModule map[*types.Package]bool
	// changed is the fixpoint dirty bit.
	changed bool
	// report switches the final pass from propagation to sink checks.
	report bool
	seen   map[string]bool
}

func runCttaint(pass *ProgramPass) {
	s := &ctState{
		pass:     pass,
		p:        pass.Program,
		taint:    make(map[types.Object]*ctCause),
		sums:     make(map[*types.Func]*ctSummary),
		lits:     make(map[types.Object]*ast.FuncLit),
		litSums:  make(map[*ast.FuncLit]*ctSummary),
		inModule: make(map[*types.Package]bool),
		seen:     make(map[string]bool),
	}
	for _, pkg := range s.p.Pkgs {
		if pkg.Types != nil {
			s.inModule[pkg.Types] = true
		}
	}
	s.collectAnnotations()
	// Propagate to a fixpoint. Every step only ever adds taint (objects,
	// summary slots), so the pass count is bounded by the object count;
	// the cap is a safety net, generous beyond any real chain depth.
	for i := 0; i < 64; i++ {
		s.changed = false
		s.walkAll()
		if !s.changed {
			break
		}
	}
	s.report = true
	s.walkAll()
}

// collectAnnotations seeds the taint map from seclint:secret on struct
// fields and vars, and reports misplaced annotations. Function-level
// seclint:secret is parsed by the graph builder (Fn.SecretResults /
// Fn.SecretParams) and applied during the walk.
func (s *ctState) collectAnnotations() {
	for _, pkg := range s.p.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			s.collectFile(pkg, file)
		}
	}
}

func (s *ctState) collectFile(pkg *Package, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		gd, ok := n.(*ast.GenDecl)
		if !ok {
			return true
		}
		switch gd.Tok {
		case token.TYPE:
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					s.collectFields(pkg, ts.Name.Name, st)
				}
			}
		case token.VAR:
			s.collectVars(pkg, gd)
		case token.CONST:
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, ann := range specAnnotations(gd, vs) {
					if ann.Kind == annSecret {
						s.misuse(pkg, vs.Pos(), "seclint:secret belongs on a var, struct field, or function, not a const (constants are compile-time public)")
					}
				}
			}
		}
		return true
	})
}

// specAnnotations merges the decl-level and spec-level doc comments of
// one spec in a grouped declaration.
func specAnnotations(gd *ast.GenDecl, vs *ast.ValueSpec) []annotation {
	anns := parseAnnotations(vs.Doc)
	anns = append(anns, parseAnnotations(vs.Comment)...)
	if len(gd.Specs) == 1 {
		anns = append(anns, parseAnnotations(gd.Doc)...)
	}
	return anns
}

func (s *ctState) collectFields(pkg *Package, typeName string, st *ast.StructType) {
	for _, f := range st.Fields.List {
		anns := parseAnnotations(f.Doc)
		anns = append(anns, parseAnnotations(f.Comment)...)
		for _, ann := range anns {
			if ann.Kind != annSecret {
				s.misuse(pkg, f.Pos(), fmt.Sprintf("seclint:%s is not a field annotation", ann.Kind))
				continue
			}
			for _, name := range f.Names {
				obj := pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				desc := fmt.Sprintf("secret field %s.%s.%s", pkgName(pkg), typeName, name.Name)
				if ann.Text != "" {
					desc += " (" + ann.Text + ")"
				}
				s.setTaint(obj, &ctCause{desc: desc})
			}
			if len(f.Names) == 0 {
				s.misuse(pkg, f.Pos(), "seclint:secret on an embedded field is not supported; annotate the embedded type's own fields")
			}
		}
	}
}

func (s *ctState) collectVars(pkg *Package, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, ann := range specAnnotations(gd, vs) {
			if ann.Kind != annSecret {
				continue
			}
			for _, name := range vs.Names {
				obj := pkg.Info.Defs[name]
				if obj == nil {
					continue
				}
				desc := fmt.Sprintf("secret var %s.%s", pkgName(pkg), name.Name)
				if ann.Text != "" {
					desc += " (" + ann.Text + ")"
				}
				s.setTaint(obj, &ctCause{desc: desc})
			}
		}
	}
}

func (s *ctState) misuse(pkg *Package, pos token.Pos, msg string) {
	// Annotation misuse is reported once, during collection (which runs
	// exactly once), so no dedup is needed here.
	s.pass.Reportf(pkg, pos, "%s", msg)
}

func pkgName(pkg *Package) string {
	if pkg.Types != nil {
		return pkg.Types.Name()
	}
	return pkg.ImportPath
}

// setTaint records the first cause taint reaches obj with. Errors are
// exempt by policy; set-once keeps the fixpoint monotone.
func (s *ctState) setTaint(obj types.Object, c *ctCause) {
	if obj == nil || c == nil {
		return
	}
	if _, ok := s.taint[obj]; ok {
		return
	}
	if isErrorType(obj.Type()) {
		return
	}
	s.taint[obj] = c
	s.changed = true
}

// moduleObj reports whether obj is declared inside the module.
func (s *ctState) moduleObj(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && s.inModule[obj.Pkg()]
}

// litSummaryFor returns (creating empty) the summary of one function
// literal.
func (s *ctState) litSummaryFor(pkg *Package, lit *ast.FuncLit) *ctSummary {
	if sum, ok := s.litSums[lit]; ok {
		return sum
	}
	sum := &ctSummary{}
	if sig, ok := pkg.Info.TypeOf(lit).(*types.Signature); ok {
		sum.pTaint = make([]*ctCause, sig.Params().Len())
		sum.rTaint = make([]*ctCause, sig.Results().Len())
	}
	s.litSums[lit] = sum
	return sum
}

// seedLitParams taints a literal's parameter objects from taint its
// call sites accumulated on the summary.
func (s *ctState) seedLitParams(pkg *Package, lit *ast.FuncLit, sum *ctSummary) {
	i := 0
	for _, f := range lit.Type.Params.List {
		if len(f.Names) == 0 {
			i++
			continue
		}
		for _, name := range f.Names {
			if i < len(sum.pTaint) && sum.pTaint[i] != nil && name.Name != "_" {
				if obj := pkg.Info.Defs[name]; obj != nil {
					s.setTaint(obj, &ctCause{desc: "param " + name.Name + " of closure", prev: sum.pTaint[i]})
				}
			}
			i++
		}
	}
}

// summaryFor returns (creating empty) the summary of one declared
// function, receiver-first.
func (s *ctState) summaryFor(obj *types.Func) *ctSummary {
	if sum, ok := s.sums[obj]; ok {
		return sum
	}
	sig, _ := obj.Type().(*types.Signature)
	sum := &ctSummary{owner: obj}
	if sig != nil {
		n := sig.Params().Len()
		if sig.Recv() != nil {
			n++
		}
		sum.pTaint = make([]*ctCause, n)
		sum.rTaint = make([]*ctCause, sig.Results().Len())
	}
	s.sums[obj] = sum
	return sum
}

func (s *ctState) setParamTaint(sum *ctSummary, i int, c *ctCause) {
	if c == nil || i < 0 || i >= len(sum.pTaint) || sum.pTaint[i] != nil {
		return
	}
	sum.pTaint[i] = c
	s.changed = true
}

func (s *ctState) setResultTaint(sum *ctSummary, i int, c *ctCause) {
	if c == nil || i < 0 || i >= len(sum.rTaint) {
		return
	}
	if old := sum.rTaint[i]; old != nil {
		// One-way upgrade: a result tainted unconditionally (from a
		// global or an annotated source) must not stay masked by an
		// earlier param-conditional cause, or call sites passing public
		// arguments would wrongly re-derive the result to clean.
		if sum.owner == nil || paramMarker(old, sum.owner) == nil || paramMarker(c, sum.owner) != nil {
			return
		}
	}
	sum.rTaint[i] = c
	s.changed = true
}

// walkAll runs one propagation (or reporting) pass over every function
// body in deterministic package/file order.
func (s *ctState) walkAll() {
	for _, pkg := range s.p.Pkgs {
		if pkg.Info == nil {
			continue
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
				s.walkFunc(pkg, d, obj)
			}
		}
	}
}

func (s *ctState) walkFunc(pkg *Package, d *ast.FuncDecl, obj *types.Func) {
	sum := s.summaryFor(obj)
	fn := s.p.fns[obj]
	if fn != nil && (fn.Source || fn.Sanitizer) {
		// Declared boundaries are the audited declassification points:
		// like plaintaint, the traversal does not descend into their
		// bodies, and their results are clean at every call site.
		return
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil {
		s.seedParams(sig, sum, fn, obj)
	}
	w := &ctWalker{s: s, pkg: pkg, sig: sig, sum: sum, fn: fn}
	w.walk(d.Body)
}

// seedParams taints parameter objects from seclint:secret param
// annotations and from taint accumulated at call sites. The signature's
// parameter variables ARE the declaration's defined objects, so body
// uses resolve to the same objects.
func (s *ctState) seedParams(sig *types.Signature, sum *ctSummary, fn *Fn, obj *types.Func) {
	vars := make([]*types.Var, 0, len(sum.pTaint))
	if sig.Recv() != nil {
		vars = append(vars, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		vars = append(vars, sig.Params().At(i))
	}
	name := shortFuncName(obj)
	for i, v := range vars {
		if v == nil || v.Name() == "" || v.Name() == "_" {
			continue
		}
		if fn != nil {
			for _, sp := range fn.SecretParams {
				if sp == v.Name() {
					s.setTaint(v, &ctCause{desc: fmt.Sprintf("secret param %s of %s", v.Name(), name)})
				}
			}
		}
		if i < len(sum.pTaint) && sum.pTaint[i] != nil {
			s.setTaint(v, &ctCause{desc: fmt.Sprintf("param %s of %s", v.Name(), name), prev: sum.pTaint[i], paramOf: obj, paramIdx: i})
		}
	}
}

// ctWalker propagates taint through one function body (and reports
// sinks on the final pass). sum is nil inside function literals: a
// closure's returns do not feed the enclosing declaration's summary,
// while its captured objects are shared through the global taint map.
type ctWalker struct {
	s   *ctState
	pkg *Package
	sig *types.Signature
	sum *ctSummary
	fn  *Fn
}

func (w *ctWalker) walk(body ast.Node) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sum := w.s.litSummaryFor(w.pkg, n)
			sig, _ := w.pkg.Info.TypeOf(n).(*types.Signature)
			w.s.seedLitParams(w.pkg, n, sum)
			inner := &ctWalker{s: w.s, pkg: w.pkg, sig: sig, sum: sum, fn: w.fn}
			inner.walk(n.Body)
			return false
		case *ast.AssignStmt:
			w.assign(n)
		case *ast.GenDecl:
			if n.Tok == token.VAR {
				w.varDecl(n)
			}
		case *ast.ReturnStmt:
			w.returnStmt(n)
		case *ast.RangeStmt:
			w.rangeStmt(n)
		case *ast.CompositeLit:
			w.compositeLit(n)
		case *ast.CallExpr:
			w.call(n)
		case *ast.IfStmt:
			w.condSink(n.Cond, "branch", "condition")
		case *ast.ForStmt:
			w.condSink(n.Cond, "loop", "bound")
		case *ast.SwitchStmt:
			if n.Tag != nil {
				w.condSink(n.Tag, "branch", "switch tag")
			} else {
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						w.condSink(e, "branch", "case expression")
					}
				}
			}
		case *ast.IndexExpr:
			w.indexSink(n)
		}
		return true
	})
}

// assign transfers taint right→left. Compound assignments (+=, …) and
// plain/define assignments share the rule: a tainted right-hand side
// taints the target object.
func (w *ctWalker) assign(n *ast.AssignStmt) {
	if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
		for i, c := range w.multiTaint(n.Rhs[0], len(n.Lhs)) {
			w.taintTarget(n.Lhs[i], c)
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i < len(n.Rhs) {
			w.registerLit(lhs, n.Rhs[i])
			w.taintTarget(lhs, w.exprTaint(n.Rhs[i]))
		}
	}
}

// registerLit records a variable directly bound to a function literal,
// so later calls through it resolve to the literal's summary.
func (w *ctWalker) registerLit(lhs, rhs ast.Expr) {
	lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
	if !ok {
		return
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.pkg.Info.Defs[id]
	if obj == nil {
		obj = w.pkg.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	if _, ok := w.s.lits[obj]; !ok {
		w.s.lits[obj] = lit
	}
}

// litCallee resolves a call through a literal-bound variable.
func (w *ctWalker) litCallee(n *ast.CallExpr) *ast.FuncLit {
	id, ok := ast.Unparen(n.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := w.pkg.Info.Uses[id]
	if obj == nil {
		return nil
	}
	return w.s.lits[obj]
}

func (w *ctWalker) varDecl(n *ast.GenDecl) {
	for _, spec := range n.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Names) > 1 && len(vs.Values) == 1 {
			for i, c := range w.multiTaint(vs.Values[0], len(vs.Names)) {
				w.taintTarget(vs.Names[i], c)
			}
			continue
		}
		for i, name := range vs.Names {
			if i < len(vs.Values) {
				w.registerLit(name, vs.Values[i])
				w.taintTarget(name, w.exprTaint(vs.Values[i]))
			}
		}
	}
}

// taintTarget taints the object behind an assignment target: an
// identifier, a field selection (which taints the field object for
// every instance — fields are global facts), or the base container of
// an index/star/slice expression.
func (w *ctWalker) taintTarget(lhs ast.Expr, c *ctCause) {
	if c == nil {
		return
	}
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := w.pkg.Info.Defs[lhs]
		if obj == nil {
			obj = w.pkg.Info.Uses[lhs]
		}
		if obj != nil {
			w.s.setTaint(obj, &ctCause{desc: lhs.Name, prev: c})
		}
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			// Field taint is a global fact, so it globalizes only for
			// module-declared fields: writing a key DER into one
			// pem.Block must not taint every pem.Block in the tree.
			if w.s.moduleObj(sel.Obj()) {
				w.s.setTaint(sel.Obj(), &ctCause{desc: "field " + lhs.Sel.Name, prev: c})
			}
			return
		}
		// Qualified package-level var.
		if obj := w.pkg.Info.Uses[lhs.Sel]; obj != nil {
			w.s.setTaint(obj, &ctCause{desc: lhs.Sel.Name, prev: c})
		}
	case *ast.IndexExpr:
		w.taintTarget(lhs.X, c)
	case *ast.StarExpr:
		w.taintTarget(lhs.X, c)
	case *ast.SliceExpr:
		w.taintTarget(lhs.X, c)
	}
}

// returnStmt feeds the enclosing declaration's result summary.
func (w *ctWalker) returnStmt(n *ast.ReturnStmt) {
	if w.sum == nil || w.sig == nil {
		return
	}
	res := w.sig.Results()
	wrap := func(c *ctCause) *ctCause {
		if c == nil {
			return nil
		}
		return &ctCause{desc: "returned", prev: c}
	}
	switch {
	case len(n.Results) == 0:
		// Naked return: named result objects carry the taint.
		for i := 0; i < res.Len(); i++ {
			if c, ok := w.s.taint[res.At(i)]; ok {
				w.s.setResultTaint(w.sum, i, wrap(c))
			}
		}
	case len(n.Results) == res.Len():
		for i, e := range n.Results {
			if isErrorType(res.At(i).Type()) {
				continue
			}
			w.s.setResultTaint(w.sum, i, wrap(w.exprTaint(e)))
		}
	case len(n.Results) == 1:
		// return f() forwarding a multi-value call.
		for i, c := range w.multiTaint(n.Results[0], res.Len()) {
			if !isErrorType(res.At(i).Type()) {
				w.s.setResultTaint(w.sum, i, wrap(c))
			}
		}
	}
}

// rangeStmt taints the iteration variables when the ranged container
// is secret-derived, and treats a secret-derived *count* (range over
// an integer) as a loop-bound sink: element count is public for
// containers, but an integer IS its own bit pattern.
func (w *ctWalker) rangeStmt(n *ast.RangeStmt) {
	cx := w.exprTaint(n.X)
	if cx == nil {
		return
	}
	t := w.pkg.Info.TypeOf(n.X)
	if t == nil {
		return
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
		w.sink(n.X.Pos(), "loop", "iteration count", cx)
		return
	}
	keySecret := false
	if _, ok := t.Underlying().(*types.Map); ok {
		keySecret = true // map keys are element values
	}
	wrapped := &ctCause{desc: "range element", prev: cx}
	if n.Key != nil && keySecret {
		w.taintTarget(n.Key, wrapped)
	}
	if n.Value != nil {
		w.taintTarget(n.Value, wrapped)
	}
}

// compositeLit records secret-valued literal elements on their field
// objects, so Key{e: secret} taints Key.e for every later selection.
func (w *ctWalker) compositeLit(n *ast.CompositeLit) {
	t := w.pkg.Info.TypeOf(n)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, el := range n.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			c := w.exprTaint(kv.Value)
			if c == nil {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); ok {
				if fobj, ok := w.pkg.Info.Uses[key].(*types.Var); ok && w.s.moduleObj(fobj) {
					w.s.setTaint(fobj, &ctCause{desc: "field " + key.Name, prev: c})
				}
			}
			continue
		}
		if c := w.exprTaint(el); c != nil && i < st.NumFields() && w.s.moduleObj(st.Field(i)) {
			w.s.setTaint(st.Field(i), &ctCause{desc: "field " + st.Field(i).Name(), prev: c})
		}
	}
}

// call propagates argument taint into module callees' summaries and,
// on the reporting pass, checks the call-shaped sinks (variable-time
// math/big operands, make sizes).
func (w *ctWalker) call(n *ast.CallExpr) {
	if tv, ok := w.pkg.Info.Types[n.Fun]; ok && tv.IsType() {
		return // conversion
	}
	obj, recv := w.callee(n)
	if obj == nil {
		if lit := w.litCallee(n); lit != nil {
			sum := w.s.litSummaryFor(w.pkg, lit)
			for i, a := range n.Args {
				c := w.exprTaint(a)
				if c == nil {
					continue
				}
				pi := i
				if pi >= len(sum.pTaint) {
					if len(sum.pTaint) == 0 {
						continue
					}
					pi = len(sum.pTaint) - 1
				}
				w.s.setParamTaint(sum, pi, &ctCause{desc: "arg to closure", prev: c})
			}
			return
		}
		if b := w.builtin(n); b == "make" && w.s.report {
			for _, a := range n.Args[1:] {
				if c := w.exprTaint(a); c != nil {
					w.sink(a.Pos(), "allocation", "size", c)
				}
			}
		}
		return
	}
	origin := obj.Origin()
	if fnNode, ok := w.s.p.fns[origin]; ok {
		// Module callee: accumulate argument taint on its summary.
		sum := w.s.summaryFor(origin)
		sig, _ := origin.Type().(*types.Signature)
		if sig == nil {
			return
		}
		idx := 0
		if sig.Recv() != nil {
			idx = 1
			if recv != nil {
				if c := w.exprTaint(recv); c != nil {
					w.s.setParamTaint(sum, 0, &ctCause{desc: "receiver of " + fnNode.Name, prev: c})
				}
			}
		}
		for i, a := range n.Args {
			c := w.exprTaint(a)
			if c == nil {
				continue
			}
			pi := idx + i
			if pi >= len(sum.pTaint) {
				if !sig.Variadic() || len(sum.pTaint) == 0 {
					continue
				}
				pi = len(sum.pTaint) - 1
			}
			w.s.setParamTaint(sum, pi, &ctCause{desc: "arg to " + fnNode.Name, prev: c})
		}
		return
	}
	if !w.s.report {
		return
	}
	// External callee: check the variable-time table.
	vtName := externalKey(origin)
	vt, ok := bigVarTime[vtName]
	if !ok {
		return
	}
	if vt.recv && recv != nil {
		if c := w.exprTaint(recv); c != nil {
			w.s.reportSink(w.pkg, n.Pos(), fmt.Sprintf(
				"variable-time %s: %s derives from %s [path %s]",
				vtName, vt.what, c.root(), c.path()))
		}
	}
	for _, ai := range vt.args {
		if ai >= len(n.Args) {
			continue
		}
		if c := w.exprTaint(n.Args[ai]); c != nil {
			w.s.reportSink(w.pkg, n.Args[ai].Pos(), fmt.Sprintf(
				"variable-time %s: %s derives from %s [path %s]",
				vtName, vt.what, c.root(), c.path()))
		}
	}
}

// condSink reports a control-flow sink on the reporting pass.
func (w *ctWalker) condSink(cond ast.Expr, kind, role string) {
	if cond == nil || !w.s.report {
		return
	}
	if c := w.exprTaint(cond); c != nil {
		w.sink(cond.Pos(), kind, role, c)
	}
}

// indexSink flags secret subscripts into slices and arrays — the
// memory-access pattern then keys on secret bits (cache-timing
// leakage). Map subscripts are hash-routed, not positional, and stay
// out of scope here.
func (w *ctWalker) indexSink(n *ast.IndexExpr) {
	if !w.s.report {
		return
	}
	tv, ok := w.pkg.Info.Types[n.X]
	if !ok || !tv.IsValue() {
		return // generic instantiation, not a subscript
	}
	t := tv.Type.Underlying()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	switch t.(type) {
	case *types.Slice, *types.Array:
	default:
		return
	}
	if c := w.exprTaint(n.Index); c != nil {
		w.sink(n.Index.Pos(), "index", "slice subscript", c)
	}
}

func (w *ctWalker) sink(pos token.Pos, kind, role string, c *ctCause) {
	w.s.reportSink(w.pkg, pos, fmt.Sprintf(
		"secret-dependent %s: %s derives from %s [path %s]",
		kind, role, c.root(), c.path()))
}

func (s *ctState) reportSink(pkg *Package, pos token.Pos, msg string) {
	key := fmt.Sprintf("%d|%s", pos, msg)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.pass.Reportf(pkg, pos, "%s", msg)
}

// callee resolves a call to its static *types.Func and receiver
// expression (nil for package functions and unresolved callees).
func (w *ctWalker) callee(n *ast.CallExpr) (*types.Func, ast.Expr) {
	switch f := ast.Unparen(n.Fun).(type) {
	case *ast.Ident:
		if fo, ok := w.pkg.Info.Uses[f].(*types.Func); ok {
			return fo, nil
		}
	case *ast.SelectorExpr:
		if fo, ok := w.pkg.Info.Uses[f.Sel].(*types.Func); ok {
			if sig, ok := fo.Type().(*types.Signature); ok && sig.Recv() != nil {
				return fo, f.X
			}
			return fo, nil
		}
	}
	return nil, nil
}

// builtin returns the name of the builtin a call invokes, or "".
func (w *ctWalker) builtin(n *ast.CallExpr) string {
	if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
		if b, ok := w.pkg.Info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// multiTaint computes per-position taint of a multi-value expression
// (call, type assertion, map index) assigned to n targets.
func (w *ctWalker) multiTaint(rhs ast.Expr, n int) []*ctCause {
	out := make([]*ctCause, n)
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		// v, ok := x.(T) / m[k]: position 0 carries the value's taint,
		// position 1 is a public bool.
		out[0] = w.exprTaint(rhs)
		return out
	}
	obj, recv := w.callee(call)
	if obj != nil {
		origin := obj.Origin()
		if fnNode, ok := w.s.p.fns[origin]; ok {
			if fnNode.Source || fnNode.Sanitizer {
				return out // message-domain boundary, see package doc
			}
			sig, _ := origin.Type().(*types.Signature)
			if fnNode.SecretResults {
				for i := 0; i < n; i++ {
					if sig != nil && i < sig.Results().Len() && isErrorType(sig.Results().At(i).Type()) {
						continue
					}
					out[i] = &ctCause{desc: "secret result of " + fnNode.Name + " (" + fnNode.SecretWhy + ")"}
				}
				return out
			}
			sum := w.s.summaryFor(origin)
			for i := 0; i < n && i < len(sum.rTaint); i++ {
				if sum.rTaint[i] == nil {
					continue
				}
				if rc := w.deriveResult(call, recv, origin, sum.rTaint[i]); rc != nil {
					out[i] = &ctCause{desc: "result of " + fnNode.Name, prev: rc}
				}
			}
			return out
		}
	}
	if obj == nil {
		if lit := w.litCallee(call); lit != nil {
			sum := w.s.litSummaryFor(w.pkg, lit)
			for i := 0; i < n && i < len(sum.rTaint); i++ {
				if sum.rTaint[i] != nil {
					out[i] = &ctCause{desc: "result of closure", prev: sum.rTaint[i]}
				}
			}
			return out
		}
	}
	// External or unresolved callee: pass-through, skipping error
	// positions.
	c := w.exprTaint(call)
	if c == nil {
		return out
	}
	tv, ok := w.pkg.Info.Types[call]
	var tuple *types.Tuple
	if ok {
		tuple, _ = tv.Type.(*types.Tuple)
	}
	for i := 0; i < n; i++ {
		if tuple != nil && i < tuple.Len() && isErrorType(tuple.At(i).Type()) {
			continue
		}
		out[i] = c
	}
	return out
}

// exprTaint computes the taint of one expression.
func (w *ctWalker) exprTaint(e ast.Expr) *ctCause {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		obj := w.pkg.Info.Uses[e]
		if obj == nil {
			obj = w.pkg.Info.Defs[e]
		}
		if obj == nil {
			return nil
		}
		if c, ok := w.s.taint[obj]; ok {
			return c
		}
		if v, ok := obj.(*types.Var); ok {
			if why, ok := w.s.p.containsPrivate(v.Type()); ok {
				return &ctCause{desc: fmt.Sprintf("%s (value of private type %s)", e.Name, why)}
			}
		}
		return nil
	case *ast.SelectorExpr:
		if sel, ok := w.pkg.Info.Selections[e]; ok {
			if sel.Kind() != types.FieldVal {
				return nil // method value: not a data read
			}
			// Field-sensitive: the selection is secret iff the FIELD is —
			// annotated, written with secret values somewhere, or of a
			// private type. The base being secret does not leak into
			// public fields (k.group.P is public arithmetic context).
			fobj := sel.Obj()
			if c, ok := w.s.taint[fobj]; ok {
				return c
			}
			if why, ok := w.s.p.containsPrivate(fobj.Type()); ok {
				return &ctCause{desc: fmt.Sprintf("%s (field of private type %s)", e.Sel.Name, why)}
			}
			return nil
		}
		return w.exprTaint(e.Sel) // qualified identifier
	case *ast.ParenExpr:
		return w.exprTaint(e.X)
	case *ast.StarExpr:
		return w.exprTaint(e.X)
	case *ast.UnaryExpr:
		return w.exprTaint(e.X)
	case *ast.BinaryExpr:
		// Comparisons against nil observe presence, not bits.
		if (e.Op == token.EQL || e.Op == token.NEQ) && (w.isNil(e.X) || w.isNil(e.Y)) {
			return nil
		}
		if c := w.exprTaint(e.X); c != nil {
			return c
		}
		return w.exprTaint(e.Y)
	case *ast.IndexExpr:
		if tv, ok := w.pkg.Info.Types[e.X]; !ok || !tv.IsValue() {
			return nil // generic instantiation
		}
		// Elements of a secret container are secret; so is a value
		// selected by a secret subscript (tab[d] correlates with d).
		if c := w.exprTaint(e.X); c != nil {
			return &ctCause{desc: "element", prev: c}
		}
		if c := w.exprTaint(e.Index); c != nil {
			return &ctCause{desc: "secret-indexed element", prev: c}
		}
		return nil
	case *ast.IndexListExpr:
		return nil // generic instantiation
	case *ast.SliceExpr:
		return w.exprTaint(e.X)
	case *ast.TypeAssertExpr:
		return w.exprTaint(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c := w.exprTaint(el); c != nil {
				return c
			}
		}
		return nil
	case *ast.CallExpr:
		return w.callTaint(e)
	}
	return nil
}

func (w *ctWalker) isNil(e ast.Expr) bool {
	tv, ok := w.pkg.Info.Types[e]
	return ok && tv.IsNil()
}

// deriveResult contextualizes one summary result cause at a call site.
// A chain that enters the callee through its own parameter (a marker
// seeded by seedParams) describes a pass-through: the result is secret
// only when THIS call's actual argument is, so the cause is re-derived
// from the actual. That keeps one secret caller (the CT ladder handing
// wordsOf an exponent) from smearing taint onto every public caller
// (the kernels handing it a modulus). Closures keep context-insensitive
// summaries, and positions that do not map 1:1 onto an actual (method
// expressions, variadic fan-in) stay conservative.
func (w *ctWalker) deriveResult(n *ast.CallExpr, recv ast.Expr, origin *types.Func, c *ctCause) *ctCause {
	marker := paramMarker(c, origin)
	if marker == nil {
		return c
	}
	arg := w.argAt(n, recv, origin, marker.paramIdx)
	if arg == nil {
		return c
	}
	ac := w.exprTaint(arg)
	if ac == nil {
		return nil
	}
	// Re-root the intra-callee prefix of the chain on the actual
	// argument's cause; the marker is spent (resolved at this site), so
	// the rebuilt hop drops it.
	var prefix []*ctCause
	for m := c; m != marker; m = m.prev {
		prefix = append(prefix, m)
	}
	out := &ctCause{desc: marker.desc, prev: ac}
	for i := len(prefix) - 1; i >= 0; i-- {
		out = &ctCause{desc: prefix[i].desc, prev: out}
	}
	return out
}

// argAt maps a receiver-first parameter index to the call's actual
// expression, or nil when the mapping is not 1:1.
func (w *ctWalker) argAt(n *ast.CallExpr, recv ast.Expr, origin *types.Func, idx int) ast.Expr {
	sig, _ := origin.Type().(*types.Signature)
	if sig == nil {
		return nil
	}
	if sig.Recv() != nil {
		if idx == 0 {
			return recv
		}
		idx--
	}
	if idx < 0 || idx >= len(n.Args) {
		return nil
	}
	if sig.Variadic() && idx >= sig.Params().Len()-1 && len(n.Args) != sig.Params().Len() {
		return nil
	}
	return n.Args[idx]
}

// callTaint computes the merged (any-result) taint of a call in
// single-value position.
func (w *ctWalker) callTaint(n *ast.CallExpr) *ctCause {
	if tv, ok := w.pkg.Info.Types[n.Fun]; ok && tv.IsType() {
		if len(n.Args) == 1 {
			return w.exprTaint(n.Args[0]) // conversion preserves bits
		}
		return nil
	}
	switch w.builtin(n) {
	case "len", "cap":
		// Container sizes are public parameters in this module; an
		// integer's "length" sink is the BitLen entry instead.
		return nil
	case "append", "min", "max":
		for _, a := range n.Args {
			if c := w.exprTaint(a); c != nil {
				return c
			}
		}
		return nil
	case "":
		// Not a builtin; fall through to function-call handling.
	default:
		return nil
	}
	obj, recv := w.callee(n)
	if obj != nil {
		origin := obj.Origin()
		if fnNode, ok := w.s.p.fns[origin]; ok {
			if fnNode.Source || fnNode.Sanitizer {
				// Decryption/encryption outputs are message-domain
				// values, not key bits: the timing perimeter stops at
				// the same audited boundaries plaintaint trusts.
				return nil
			}
			if fnNode.SecretResults {
				return &ctCause{desc: "secret result of " + fnNode.Name + " (" + fnNode.SecretWhy + ")"}
			}
			sum := w.s.summaryFor(origin)
			for _, c := range sum.rTaint {
				if c == nil {
					continue
				}
				if rc := w.deriveResult(n, recv, origin, c); rc != nil {
					return &ctCause{desc: "result of " + fnNode.Name, prev: rc}
				}
			}
			return nil
		}
		// External call: pass-through — stdlib arithmetic preserves
		// secret bits (Bytes, Add, Mod, …). Error-only results are
		// filtered by setTaint/multiTaint.
		if sig, ok := origin.Type().(*types.Signature); ok {
			allErr := sig.Results().Len() > 0
			for i := 0; i < sig.Results().Len(); i++ {
				if !isErrorType(sig.Results().At(i).Type()) {
					allErr = false
				}
			}
			if allErr {
				return nil
			}
		}
		if recv != nil {
			if c := w.exprTaint(recv); c != nil {
				return &ctCause{desc: "via " + origin.Name(), prev: c}
			}
		}
		for _, a := range n.Args {
			if c := w.exprTaint(a); c != nil {
				return &ctCause{desc: "via " + origin.Name(), prev: c}
			}
		}
		return nil
	}
	// Literal-bound callee: trust the literal's summary.
	if lit := w.litCallee(n); lit != nil {
		for _, c := range w.s.litSummaryFor(w.pkg, lit).rTaint {
			if c != nil {
				return &ctCause{desc: "result of closure", prev: c}
			}
		}
		return nil
	}
	// Unresolved callee (func value): pass-through on arguments.
	for _, a := range n.Args {
		if c := w.exprTaint(a); c != nil {
			return &ctCause{desc: "via indirect call", prev: c}
		}
	}
	return nil
}
