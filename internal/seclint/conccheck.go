package seclint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Conccheck is the whole-program concurrency-discipline analyzer. The
// multi-tenant substrate (session multiplexing, worker pools, breakers,
// graceful drain) keeps the paper's clean-abort guarantee only while
// three conventions hold, and conccheck turns each into a machine check
// on the PR-5 call graph:
//
//  1. goroutine lifecycle — a `go` spawn reachable from a party entry
//     point must have a provable termination path (no for-loop without
//     an exit, no empty select), or carry a justified seclint:detached;
//  2. lock discipline — no mutex held across a blocking operation
//     (channel ops, blocking selects, Conn/Listener wire methods,
//     time.Sleep, sync.WaitGroup.Wait, calls through func values),
//     plus non-reentrant re-acquire detection and module-wide
//     lock-ordering cycle detection over the acquired-before graph;
//  3. channel/queue discipline — double-close, sends racing a close,
//     and capacity-less data channels inside the bounded-queue
//     perimeter (internal/session, internal/parallel).
//
// Precision cuts, chosen to keep the real tree reviewable: stdlib calls
// other than the listed waiting primitives are assumed non-blocking
// (gob/json encode onto an in-memory buffer does not park), calls
// through func values count as blocking only at the call site itself
// (the summary fixpoint does not propagate them), and only for-loops
// without a condition count as divergent (a ranged channel drain is
// assumed to end when its producer closes the channel).
var Conccheck = &Analyzer{
	Name:       "conccheck",
	Doc:        "concurrency discipline: goroutine termination, locks held across blocking operations, lock ordering, channel close and bounded-queue hygiene",
	RunProgram: runConccheck,
}

// boundedQueueDirs is the bounded-queue perimeter: packages whose whole
// design is explicit queue depths, where a capacity-less data channel
// silently reintroduces synchronous handoff.
var boundedQueueDirs = []string{"internal/session", "internal/parallel"}

func inBoundedPerimeter(relDir string) bool {
	for _, d := range boundedQueueDirs {
		if relDir == d || strings.HasPrefix(relDir, d+"/") {
			return true
		}
	}
	return false
}

// heldLock is one lock in the walker's held set.
type heldLock struct {
	obj  types.Object
	name string // rendered receiver chain, e.g. "m.sendMu"
	pos  token.Pos
	read bool
}

// chanSite is one close or send on a tracked channel.
type chanSite struct {
	fn   *Fn
	pkg  *Package
	pos  token.Pos
	once types.Object // the sync.Once whose Do closure contains the site
	held []types.Object
}

// chanFacts aggregates every close and send site of one channel object.
type chanFacts struct {
	name   string
	closes []chanSite
	sends  []chanSite
}

// orderEdgeRec is one acquired-before edge: from was held when to was
// acquired (directly or inside a callee).
type orderEdgeRec struct {
	from, to         types.Object
	fromName, toName string
	pkg              *Package
	pos              token.Pos
}

type concChecker struct {
	pass *ProgramPass
	prog *Program

	// blockRoot names the blocking primitive a function can reach
	// through synchronously-executed edges; "" when it cannot block.
	blockRoot map[*Fn]string
	// divergeRoot names why a function provably never returns.
	divergeRoot map[*Fn]string
	// acquires is the set of locks a function (transitively) acquires.
	acquires map[*Fn]map[types.Object]bool

	litFn    map[*ast.FuncLit]*Fn
	onceLits map[*ast.FuncLit]types.Object

	chans     map[types.Object]*chanFacts
	chanOrder []types.Object

	orderEdges []orderEdgeRec
	orderSeen  map[[2]types.Object]bool

	guardsUsed   map[*Fn]bool
	detachedUsed map[*Fn]bool
}

func runConccheck(pass *ProgramPass) {
	c := &concChecker{
		pass:         pass,
		prog:         pass.Program,
		blockRoot:    make(map[*Fn]string),
		divergeRoot:  make(map[*Fn]string),
		acquires:     make(map[*Fn]map[types.Object]bool),
		litFn:        make(map[*ast.FuncLit]*Fn),
		onceLits:     make(map[*ast.FuncLit]types.Object),
		chans:        make(map[types.Object]*chanFacts),
		orderSeen:    make(map[[2]types.Object]bool),
		guardsUsed:   make(map[*Fn]bool),
		detachedUsed: make(map[*Fn]bool),
	}
	c.collectLits()
	c.buildBlocking()
	c.buildDiverge()
	c.buildAcquires()
	for _, fn := range c.prog.All {
		c.walkFn(fn)
	}
	c.checkSpawns()
	c.checkChannels()
	c.checkOrder()
	c.checkAnnotations()
}

func (c *concChecker) line(pos token.Pos) int {
	return c.pass.Fset.Position(pos).Line
}

// collectLits maps every closure node to its Fn and records which
// closures are sync.Once.Do arguments (those execute synchronously and
// at most once, which both the summaries and the close rules rely on).
func (c *concChecker) collectLits() {
	for _, fn := range c.prog.All {
		if fn.Lit != nil {
			c.litFn[fn.Lit] = fn
		}
	}
	for _, pkg := range c.prog.Pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || !isOnceDo(obj) || len(call.Args) != 1 {
					return true
				}
				if lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit); ok {
					c.onceLits[lit] = lockObj(pkg.Info, sel.X)
				}
				return true
			})
		}
	}
}

// onceOf returns the sync.Once object guarding fn (fn or an enclosing
// closure is a Once.Do argument), or nil.
func (c *concChecker) onceOf(fn *Fn) types.Object {
	for f := fn; f != nil; f = f.Parent {
		if f.Lit != nil {
			if o, ok := c.onceLits[f.Lit]; ok {
				return o
			}
		}
	}
	return nil
}

// blockExecutes reports whether the edge runs synchronously in the
// caller for may-block purposes: plain calls, defers (they run before
// return), interface dispatch (any implementation may be picked), and
// Once.Do closures. Spawns and plain closure creation do not execute.
func (c *concChecker) blockExecutes(e Edge) bool {
	switch e.Kind {
	case "call", "defer", "iface":
		return true
	case "closure":
		if e.Callee.Lit != nil {
			_, ok := c.onceLits[e.Callee.Lit]
			return ok
		}
	}
	return false
}

// strictExecutes is blockExecutes minus interface dispatch: divergence
// and lock-set summaries use must-semantics, where "some implementation
// might" would manufacture false deadlocks and false leaks.
func (c *concChecker) strictExecutes(e Edge) bool {
	return e.Kind != "iface" && c.blockExecutes(e)
}

// guardsOn returns the seclint:guards-annotated function covering fn
// (itself or an enclosing closure's creator), or nil.
func (c *concChecker) guardsOn(fn *Fn) *Fn {
	for f := fn; f != nil; f = f.Parent {
		if f.Guards {
			return f
		}
	}
	return nil
}

// detachedOn is the seclint:detached analogue of guardsOn.
func (c *concChecker) detachedOn(fn *Fn) *Fn {
	for f := fn; f != nil; f = f.Parent {
		if f.Detached {
			return f
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Summaries (fixpoints over the call graph)

func (c *concChecker) buildBlocking() {
	for _, fn := range c.prog.All {
		if fn.Blocking {
			c.blockRoot[fn] = fmt.Sprintf("%s (seclint:blocking)", fn.Name)
			continue
		}
		if d := c.directBlock(fn); d != "" {
			c.blockRoot[fn] = d
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range c.prog.All {
			if c.blockRoot[fn] != "" {
				continue
			}
			for _, e := range fn.Edges {
				if !c.blockExecutes(e) {
					continue
				}
				if r := c.blockRoot[e.Callee]; r != "" {
					c.blockRoot[fn] = r
					changed = true
					break
				}
			}
		}
	}
}

// directBlock finds the first blocking primitive in fn's own body:
// channel ops outside a defaulted select, blocking selects, channel
// ranges, and the known-blocking external calls. Nested closures are
// their own nodes; calls a goroutine makes run off-thread.
func (c *concChecker) directBlock(fn *Fn) string {
	body := fn.Body()
	if body == nil || fn.Pkg == nil || fn.Pkg.Info == nil {
		return ""
	}
	info := fn.Pkg.Info
	skip := make(map[ast.Node]bool)
	var found string
	set := func(desc string) {
		if found == "" {
			found = desc
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			skip[x.Call] = true
		case *ast.SelectStmt:
			hasDefault := false
			for _, cl := range x.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				set("a blocking select")
				return false
			}
			// A select with a default never parks; its comm clauses
			// must not count as blocking channel ops.
			for _, cl := range x.Body.List {
				cc, ok := cl.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				switch cm := cc.Comm.(type) {
				case *ast.SendStmt:
					skip[cm] = true
				case *ast.ExprStmt:
					skip[ast.Unparen(cm.X)] = true
				case *ast.AssignStmt:
					for _, e := range cm.Rhs {
						skip[ast.Unparen(e)] = true
					}
				}
			}
		case *ast.SendStmt:
			if !skip[x] {
				set("a channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !skip[x] {
				set("a channel receive")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					set("a range over a channel")
				}
			}
		case *ast.CallExpr:
			if skip[x] {
				return true
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if obj, ok := info.Uses[sel.Sel].(*types.Func); ok {
					if _, mod := c.prog.fns[obj.Origin()]; !mod {
						if d := blockingExternal(obj.Origin()); d != "" {
							set(d)
						}
					}
				}
			}
		}
		return true
	})
	return found
}

func (c *concChecker) buildDiverge() {
	for _, fn := range c.prog.All {
		if d := c.directDiverge(fn); d != "" {
			c.divergeRoot[fn] = d
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range c.prog.All {
			if c.divergeRoot[fn] != "" {
				continue
			}
			for _, e := range fn.Edges {
				if e.Kind != "call" {
					continue // only an unconditional-looking plain call chain diverges the caller
				}
				if r := c.divergeRoot[e.Callee]; r != "" {
					c.divergeRoot[fn] = r
					changed = true
					break
				}
			}
		}
	}
}

// directDiverge reports why fn provably never returns: a for-loop with
// no condition and no exit (return, binding break, goto, panic, or a
// terminal call), or an empty select.
func (c *concChecker) directDiverge(fn *Fn) string {
	body := fn.Body()
	if body == nil || fn.Pkg == nil || fn.Pkg.Info == nil {
		return ""
	}
	info := fn.Pkg.Info
	labels := make(map[ast.Stmt]string)
	var found string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.LabeledStmt:
			labels[x.Stmt] = x.Label.Name
		case *ast.SelectStmt:
			if len(x.Body.List) == 0 {
				found = fmt.Sprintf("%s blocks forever on an empty select at line %d", fn.Name, c.line(x.Select))
				return false
			}
		case *ast.ForStmt:
			if x.Cond == nil && !loopExits(x, labels[ast.Stmt(x)], info) {
				found = fmt.Sprintf("%s loops forever at line %d", fn.Name, c.line(x.For))
				return false
			}
		}
		return true
	})
	return found
}

// loopExits reports whether the conditionless loop has any way out.
func loopExits(loop *ast.ForStmt, label string, info *types.Info) bool {
	exits := false
	var scan func(root ast.Node, nested bool)
	scan = func(root ast.Node, nested bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if exits {
				return false
			}
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				exits = true
				return false
			case *ast.BranchStmt:
				switch x.Tok {
				case token.BREAK:
					if !nested || (x.Label != nil && label != "" && x.Label.Name == label) {
						exits = true
					}
				case token.GOTO:
					exits = true // conservatively, a goto may leave the loop
				}
				return false
			case *ast.CallExpr:
				if isTerminalCall(info, x) {
					exits = true
					return false
				}
				return true
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				// Unlabeled breaks inside bind to this inner construct.
				if n != root {
					scan(n, true)
					return false
				}
			}
			return true
		})
	}
	scan(loop.Body, false)
	return exits
}

// isTerminalCall matches calls that end the goroutine: panic, os.Exit,
// log.Fatal*/Panic*, runtime.Goexit.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[f].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	case *ast.SelectorExpr:
		obj, ok := info.Uses[f.Sel].(*types.Func)
		if !ok || obj.Pkg() == nil {
			return false
		}
		switch obj.Pkg().Path() {
		case "os":
			return obj.Name() == "Exit"
		case "log":
			return strings.HasPrefix(obj.Name(), "Fatal") || strings.HasPrefix(obj.Name(), "Panic")
		case "runtime":
			return obj.Name() == "Goexit"
		}
	}
	return false
}

func (c *concChecker) buildAcquires() {
	for _, fn := range c.prog.All {
		body := fn.Body()
		if body == nil || fn.Pkg == nil || fn.Pkg.Info == nil {
			continue
		}
		info := fn.Pkg.Info
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if m, ok := info.Uses[sel.Sel].(*types.Func); ok && isSyncLockMethod(m) {
				if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
					if obj := lockObj(info, sel.X); obj != nil {
						set := c.acquires[fn]
						if set == nil {
							set = make(map[types.Object]bool)
							c.acquires[fn] = set
						}
						set[obj] = true
					}
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range c.prog.All {
			for _, e := range fn.Edges {
				if !c.strictExecutes(e) {
					continue
				}
				for obj := range c.acquires[e.Callee] {
					set := c.acquires[fn]
					if set == nil {
						set = make(map[types.Object]bool)
						c.acquires[fn] = set
					}
					if !set[obj] {
						set[obj] = true
						changed = true
					}
				}
			}
		}
	}
}

// isSyncLockMethod reports whether m is a sync.Mutex/RWMutex lock-family
// method (Lock/Unlock/RLock/RUnlock).
func isSyncLockMethod(m *types.Func) bool {
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	if tn.Pkg() == nil || tn.Pkg().Path() != "sync" || (tn.Name() != "Mutex" && tn.Name() != "RWMutex") {
		return false
	}
	switch m.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return true
	}
	return false
}

func isOnceDo(m *types.Func) bool {
	if m.Name() != "Do" {
		return false
	}
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Once"
}

// blockingExternal classifies a non-module function as a known waiting
// primitive: time.Sleep, net dial/listen, sync.WaitGroup/Cond Wait, and
// the wire-shaped methods (Send/Recv/Accept) of any interface
// named Conn or Listener — the axiom that makes transport.Conn calls
// blocking without conccheck having to see the implementations.
func blockingExternal(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if sig.Recv() == nil {
		if pkg := obj.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "time":
				if obj.Name() == "Sleep" {
					return "time.Sleep"
				}
			case "net":
				switch obj.Name() {
				case "Dial", "DialTimeout", "Listen":
					return "net." + obj.Name()
				}
			}
		}
		return ""
	}
	rt := sig.Recv().Type()
	if named, ok := rt.(*types.Named); ok && types.IsInterface(named) {
		tn := named.Obj()
		if (tn.Name() == "Conn" || tn.Name() == "Listener") && isWireMethod(obj.Name()) {
			q := tn.Name()
			if tn.Pkg() != nil {
				q = tn.Pkg().Name() + "." + q
			}
			return q + "." + obj.Name()
		}
		return ""
	}
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		tn := named.Obj()
		if tn.Pkg() != nil && tn.Pkg().Path() == "sync" && obj.Name() == "Wait" &&
			(tn.Name() == "WaitGroup" || tn.Name() == "Cond") {
			return "sync." + tn.Name() + ".Wait"
		}
	}
	return ""
}

func isWireMethod(name string) bool {
	switch name {
	case "Send", "Recv", "Accept":
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// The per-function lock walk (rule 2, plus channel-site collection)

func (c *concChecker) walkFn(fn *Fn) {
	body := fn.Body()
	if body == nil || fn.Pkg == nil || fn.Pkg.Info == nil {
		return
	}
	lw := &lockWalker{c: c, fn: fn, pkg: fn.Pkg}
	lw.stmts(body.List, nil)
}

type lockWalker struct {
	c   *concChecker
	fn  *Fn
	pkg *Package
}

func cloneHeld(h []heldLock) []heldLock {
	return append([]heldLock(nil), h...)
}

func heldObjs(h []heldLock) []types.Object {
	out := make([]types.Object, len(h))
	for i := range h {
		out[i] = h[i].obj
	}
	return out
}

// intersectHeld keeps the locks of a that are also held in b — the
// must-hold state after a branch merge.
func intersectHeld(a, b []heldLock) []heldLock {
	var out []heldLock
	for _, h := range a {
		for _, o := range b {
			if h.obj == o.obj {
				out = append(out, h)
				break
			}
		}
	}
	return out
}

func releaseHeld(held []heldLock, obj types.Object) []heldLock {
	if obj == nil {
		return held
	}
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].obj == obj {
			out := append([]heldLock(nil), held[:i]...)
			return append(out, held[i+1:]...)
		}
	}
	return held
}

// stmts walks a statement list sequentially, threading the held-lock
// set, and reports whether the list terminates control flow.
func (lw *lockWalker) stmts(list []ast.Stmt, held []heldLock) ([]heldLock, bool) {
	for _, s := range list {
		var term bool
		held, term = lw.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (lw *lockWalker) stmt(s ast.Stmt, held []heldLock) ([]heldLock, bool) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return held, false
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if obj, name, read, isLock, isUnlock := lw.lockCall(call); isLock {
				return lw.acquire(held, obj, name, call.Pos(), read), false
			} else if isUnlock {
				return releaseHeld(held, obj), false
			}
			if isTerminalCall(lw.pkg.Info, call) {
				lw.ops(s.X, held)
				return held, true
			}
		}
		lw.ops(s.X, held)
		return held, false
	case *ast.SendStmt:
		lw.ops(s.Chan, held)
		lw.ops(s.Value, held)
		lw.sendSite(s.Chan, s.Arrow, held)
		lw.block(s.Arrow, "a channel send", held)
		return held, false
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lw.ops(e, held)
		}
		for _, e := range s.Lhs {
			lw.ops(e, held)
		}
		return held, false
	case *ast.DeclStmt:
		lw.ops(s.Decl, held)
		return held, false
	case *ast.IncDecStmt:
		lw.ops(s.X, held)
		return held, false
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lw.ops(e, held)
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto end this block's straight-line flow.
		return held, s.Tok != token.FALLTHROUGH
	case *ast.DeferStmt:
		// Arguments evaluate now; the call runs at return. `defer
		// x.Unlock()` is the held-to-return idiom, so the lock stays in
		// the held set and later blocking ops still report.
		for _, a := range s.Call.Args {
			lw.ops(a, held)
		}
		return held, false
	case *ast.GoStmt:
		// Only the arguments run on this goroutine.
		for _, a := range s.Call.Args {
			lw.ops(a, held)
		}
		return held, false
	case *ast.BlockStmt:
		return lw.stmts(s.List, held)
	case *ast.LabeledStmt:
		return lw.stmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = lw.stmt(s.Init, held)
		}
		lw.ops(s.Cond, held)
		bodyHeld, bodyTerm := lw.stmts(s.Body.List, cloneHeld(held))
		elseHeld, elseTerm := held, false
		if s.Else != nil {
			elseHeld, elseTerm = lw.stmt(s.Else, cloneHeld(held))
		}
		switch {
		case bodyTerm && elseTerm:
			return held, true
		case bodyTerm:
			return elseHeld, false
		case elseTerm:
			return bodyHeld, false
		default:
			return intersectHeld(bodyHeld, elseHeld), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = lw.stmt(s.Init, held)
		}
		if s.Cond != nil {
			lw.ops(s.Cond, held)
		}
		lw.stmts(s.Body.List, cloneHeld(held))
		if s.Post != nil {
			lw.stmt(s.Post, cloneHeld(held))
		}
		return held, false
	case *ast.RangeStmt:
		lw.ops(s.X, held)
		if t := lw.pkg.Info.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				lw.block(s.For, "a range over a channel", held)
			}
		}
		lw.stmts(s.Body.List, cloneHeld(held))
		return held, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = lw.stmt(s.Init, held)
		}
		if s.Tag != nil {
			lw.ops(s.Tag, held)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					lw.ops(e, held)
				}
				lw.stmts(cc.Body, cloneHeld(held))
			}
		}
		return held, false
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = lw.stmt(s.Init, held)
		}
		lw.ops(s.Assign, held)
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				lw.stmts(cc.Body, cloneHeld(held))
			}
		}
		return held, false
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			lw.block(s.Select, "a blocking select", held)
		}
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				lw.ops(comm.Chan, held)
				lw.ops(comm.Value, held)
				// A select send can still race a close, default or not.
				lw.sendSite(comm.Chan, comm.Arrow, held)
			case *ast.ExprStmt:
				if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					lw.ops(u.X, held)
				}
			case *ast.AssignStmt:
				for _, e := range comm.Rhs {
					if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						lw.ops(u.X, held)
					} else {
						lw.ops(e, held)
					}
				}
			}
			lw.stmts(cc.Body, cloneHeld(held))
		}
		return held, false
	}
	lw.ops(s, held)
	return held, false
}

// lockCall classifies a sync.Mutex/RWMutex lock-family call.
func (lw *lockWalker) lockCall(call *ast.CallExpr) (obj types.Object, name string, read, isLock, isUnlock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false, false, false
	}
	m, ok := lw.pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !isSyncLockMethod(m) {
		return nil, "", false, false, false
	}
	obj = lockObj(lw.pkg.Info, sel.X)
	name = exprName(sel.X)
	switch sel.Sel.Name {
	case "Lock":
		return obj, name, false, true, false
	case "RLock":
		return obj, name, true, true, false
	default: // Unlock, RUnlock
		return obj, name, false, false, true
	}
}

func (lw *lockWalker) acquire(held []heldLock, obj types.Object, name string, pos token.Pos, read bool) []heldLock {
	if obj == nil {
		return held
	}
	for _, h := range held {
		if h.obj == obj {
			if !(read && h.read) {
				lw.c.pass.Reportf(lw.pkg, pos, "acquiring %s while already holding it (acquired at line %d); Go mutexes are not reentrant", name, lw.c.line(h.pos))
			}
			return held
		}
	}
	for _, h := range held {
		lw.c.orderEdge(h.obj, h.name, obj, name, lw.pkg, pos)
	}
	return append(cloneHeld(held), heldLock{obj: obj, name: name, pos: pos, read: read})
}

// block reports a blocking operation executed while a lock is held,
// unless the function carries a justified seclint:guards.
func (lw *lockWalker) block(pos token.Pos, desc string, held []heldLock) {
	if len(held) == 0 {
		return
	}
	if g := lw.c.guardsOn(lw.fn); g != nil {
		lw.c.guardsUsed[g] = true
		return
	}
	h := held[len(held)-1]
	kind := "mutex"
	if h.read {
		kind = "read lock"
	}
	msg := fmt.Sprintf("%s %s held across %s (acquired at line %d); shrink the critical section or annotate the function seclint:guards", kind, h.name, desc, lw.c.line(h.pos))
	if trace, ok := lw.c.prog.EntryTrace(lw.fn); ok {
		msg += " [path " + trace + "]"
	}
	lw.c.pass.Reportf(lw.pkg, pos, "%s", msg)
}

// ops scans an expression tree (skipping nested closures) for blocking
// operations, channel close/make sites, and calls whose summaries the
// held set must be checked against.
func (lw *lockWalker) ops(n ast.Node, held []heldLock) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				lw.block(x.OpPos, "a channel receive", held)
			}
		case *ast.CallExpr:
			lw.call(x, held)
		}
		return true
	})
}

func (lw *lockWalker) call(call *ast.CallExpr, held []heldLock) {
	info := lw.pkg.Info
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Builtin:
			switch f.Name {
			case "close":
				if len(call.Args) == 1 {
					lw.closeSite(call.Args[0], call.Pos(), held)
				}
			case "make":
				lw.makeSite(call)
			}
		case *types.Func:
			lw.moduleOrExternal(call, f.Pos(), obj, held)
		case *types.Var:
			lw.block(call.Pos(), fmt.Sprintf("a call through the func value %s (assumed blocking)", f.Name), held)
		}
	case *ast.SelectorExpr:
		switch obj := info.Uses[f.Sel].(type) {
		case *types.Func:
			lw.moduleOrExternal(call, f.Sel.Pos(), obj, held)
			if isOnceDo(obj) && len(call.Args) == 1 {
				lw.executesArg(call.Args[0], call.Pos(), held)
			}
		case *types.Var:
			lw.block(call.Pos(), fmt.Sprintf("a call through the func value %s (assumed blocking)", exprName(f)), held)
		}
	case *ast.FuncLit:
		// A directly-invoked literal runs inline; consult its summary.
		if fn := lw.c.litFn[f]; fn != nil {
			if r := lw.c.blockRoot[fn]; r != "" {
				lw.block(call.Pos(), fmt.Sprintf("a call to %s, which reaches %s", fn.Name, r), held)
			}
		}
	default:
		if t := info.TypeOf(call.Fun); t != nil {
			if _, ok := t.Underlying().(*types.Signature); ok {
				lw.block(call.Pos(), "a call through a func value (assumed blocking)", held)
			}
		}
	}
}

// moduleOrExternal checks one resolved call: module callees are judged
// by their summaries (may-block, re-acquire, acquired-before edges),
// external ones against the blocking table; unresolved interface calls
// fall back to the call graph's dispatch edges.
func (lw *lockWalker) moduleOrExternal(call *ast.CallExpr, selPos token.Pos, obj *types.Func, held []heldLock) {
	c := lw.c
	obj = obj.Origin()
	if fn, ok := c.prog.fns[obj]; ok {
		if fn.Blocking {
			lw.block(call.Pos(), fmt.Sprintf("a call to %s (seclint:blocking)", fn.Name), held)
		} else if r := c.blockRoot[fn]; r != "" {
			lw.block(call.Pos(), fmt.Sprintf("a call to %s, which reaches %s", fn.Name, r), held)
		}
		if acq := c.acquires[fn]; len(acq) > 0 && len(held) > 0 {
			objs := make([]types.Object, 0, len(acq))
			for o := range acq {
				objs = append(objs, o)
			}
			sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
			for _, a := range objs {
				for _, h := range held {
					if h.obj == a {
						c.pass.Reportf(lw.pkg, call.Pos(), "calling %s while holding %s, which it also acquires; the re-acquire deadlocks", fn.Name, h.name)
					} else {
						c.orderEdge(h.obj, h.name, a, a.Name(), lw.pkg, call.Pos())
					}
				}
			}
		}
		return
	}
	if d := blockingExternal(obj); d != "" {
		lw.block(call.Pos(), d, held)
		return
	}
	// An interface method outside the blocking axiom: judge it by the
	// dispatch edges the graph resolved at this position.
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
		return
	}
	for _, e := range lw.fn.Edges {
		if e.Kind == "iface" && e.Pos == selPos {
			if r := c.blockRoot[e.Callee]; r != "" {
				lw.block(call.Pos(), fmt.Sprintf("a call to %s, which reaches %s", e.Callee.Name, r), held)
				return
			}
		}
	}
}

// executesArg handles sync.Once.Do: the argument runs synchronously.
func (lw *lockWalker) executesArg(arg ast.Expr, pos token.Pos, held []heldLock) {
	switch a := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		if fn := lw.c.litFn[a]; fn != nil {
			if r := lw.c.blockRoot[fn]; r != "" {
				lw.block(pos, fmt.Sprintf("a call to %s, which reaches %s", fn.Name, r), held)
			}
		}
	case *ast.Ident:
		if obj, ok := lw.pkg.Info.Uses[a].(*types.Func); ok {
			lw.moduleOrExternal(&ast.CallExpr{Fun: a}, a.Pos(), obj, held)
		}
	case *ast.SelectorExpr:
		if obj, ok := lw.pkg.Info.Uses[a.Sel].(*types.Func); ok {
			lw.moduleOrExternal(&ast.CallExpr{Fun: a}, a.Sel.Pos(), obj, held)
		}
	}
}

func (c *concChecker) chanOf(obj types.Object, name string) *chanFacts {
	if f, ok := c.chans[obj]; ok {
		return f
	}
	f := &chanFacts{name: name}
	c.chans[obj] = f
	c.chanOrder = append(c.chanOrder, obj)
	return f
}

func (lw *lockWalker) closeSite(ch ast.Expr, pos token.Pos, held []heldLock) {
	obj := lockObj(lw.pkg.Info, ch)
	if obj == nil {
		return
	}
	f := lw.c.chanOf(obj, exprName(ch))
	f.closes = append(f.closes, chanSite{fn: lw.fn, pkg: lw.pkg, pos: pos, once: lw.c.onceOf(lw.fn), held: heldObjs(held)})
}

func (lw *lockWalker) sendSite(ch ast.Expr, pos token.Pos, held []heldLock) {
	obj := lockObj(lw.pkg.Info, ch)
	if obj == nil {
		return
	}
	f := lw.c.chanOf(obj, exprName(ch))
	f.sends = append(f.sends, chanSite{fn: lw.fn, pkg: lw.pkg, pos: pos, once: lw.c.onceOf(lw.fn), held: heldObjs(held)})
}

// makeSite enforces the bounded-queue perimeter: a capacity-less make
// of a data channel inside internal/session or internal/parallel.
func (lw *lockWalker) makeSite(call *ast.CallExpr) {
	if len(call.Args) != 1 || !inBoundedPerimeter(lw.pkg.RelDir) {
		return
	}
	t := lw.pkg.Info.TypeOf(call)
	if t == nil {
		return
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return
	}
	elem := ch.Elem()
	if st, ok := elem.Underlying().(*types.Struct); ok && st.NumFields() == 0 {
		return // a struct{} signal channel is unbuffered by design
	}
	elemStr := types.TypeString(elem, func(p *types.Package) string { return p.Name() })
	lw.c.pass.Reportf(lw.pkg, call.Pos(), "make(chan %s) without a capacity inside the bounded-queue perimeter (%s); declare an explicit bound, or use chan struct{} for pure signals", elemStr, lw.pkg.RelDir)
}

// ---------------------------------------------------------------------
// Rule 1: goroutine lifecycle

func (c *concChecker) checkSpawns() {
	for _, fn := range c.prog.All {
		for _, e := range fn.Edges {
			if e.Kind != "go" {
				continue
			}
			root := c.divergeRoot[e.Callee]
			if root == "" {
				continue
			}
			trace, ok := c.prog.EntryTrace(fn)
			if !ok {
				continue // outside the party entry perimeter
			}
			if d := c.detachedOn(e.Callee); d != nil {
				c.detachedUsed[d] = true
				continue
			}
			if d := c.detachedOn(fn); d != nil {
				c.detachedUsed[d] = true
				continue
			}
			c.pass.Reportf(fn.Pkg, e.Pos, "goroutine %s has no termination path: %s; give it an exit or annotate the spawned function seclint:detached [path %s]", e.Callee.Name, root, trace)
		}
	}
}

// ---------------------------------------------------------------------
// Rule 3: channel discipline

func (c *concChecker) checkChannels() {
	for _, obj := range c.chanOrder {
		f := c.chans[obj]
		if len(f.closes) > 1 {
			sameOnce := f.closes[0].once != nil
			for _, s := range f.closes {
				if s.once != f.closes[0].once {
					sameOnce = false
				}
			}
			if !sameOnce {
				first := f.closes[0]
				for _, s := range f.closes[1:] {
					c.pass.Reportf(s.pkg, s.pos, "channel %s is closed at more than one site (also at line %d); close from a single owner or under one sync.Once", f.name, c.line(first.pos))
				}
			}
		}
		if len(f.closes) > 0 {
			for _, s := range f.sends {
				if sendProtected(s, f.closes) {
					continue
				}
				c.pass.Reportf(s.pkg, s.pos, "send on channel %s, which is closed at line %d; a send racing that close panics — guard both sites with one mutex or route the send through the closing owner", f.name, c.line(f.closes[0].pos))
			}
		}
	}
}

// sendProtected reports whether some lock held at the send is held at
// every close, serializing the send against the close.
func sendProtected(send chanSite, closes []chanSite) bool {
	for _, o := range send.held {
		all := true
		for _, cl := range closes {
			found := false
			for _, co := range cl.held {
				if co == o {
					found = true
					break
				}
			}
			if !found {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Lock-order cycles

func (c *concChecker) orderEdge(from types.Object, fromName string, to types.Object, toName string, pkg *Package, pos token.Pos) {
	if from == nil || to == nil || from == to {
		return
	}
	key := [2]types.Object{from, to}
	if c.orderSeen[key] {
		return
	}
	c.orderSeen[key] = true
	c.orderEdges = append(c.orderEdges, orderEdgeRec{from: from, to: to, fromName: fromName, toName: toName, pkg: pkg, pos: pos})
}

// checkOrder finds strongly connected components of the acquired-before
// graph; any component with more than one lock is an ordering cycle.
func (c *concChecker) checkOrder() {
	if len(c.orderEdges) == 0 {
		return
	}
	var nodes []types.Object
	nameOf := make(map[types.Object]string)
	adj := make(map[types.Object][]types.Object)
	seen := make(map[types.Object]bool)
	addNode := func(o types.Object, name string) {
		if !seen[o] {
			seen[o] = true
			nodes = append(nodes, o)
		}
		if nameOf[o] == "" {
			nameOf[o] = name
		}
	}
	for _, e := range c.orderEdges {
		addNode(e.from, e.fromName)
		addNode(e.to, e.toName)
		adj[e.from] = append(adj[e.from], e.to)
	}

	// Iterative Tarjan SCC in deterministic first-seen node order.
	index := make(map[types.Object]int)
	low := make(map[types.Object]int)
	onStack := make(map[types.Object]bool)
	var stack []types.Object
	var sccs [][]types.Object
	next := 0
	var strong func(v types.Object)
	strong = func(v types.Object) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []types.Object
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}

	for _, comp := range sccs {
		if len(comp) < 2 {
			continue
		}
		member := make(map[types.Object]bool, len(comp))
		for _, o := range comp {
			member[o] = true
		}
		// Report at the first recorded edge inside the component, naming
		// the locks in first-seen order.
		var names []string
		for _, n := range nodes {
			if member[n] {
				names = append(names, nameOf[n])
			}
		}
		for _, e := range c.orderEdges {
			if member[e.from] && member[e.to] {
				c.pass.Reportf(e.pkg, e.pos, "lock-order cycle among %s; acquire these locks in one module-wide order", strings.Join(names, ", "))
				break
			}
		}
	}
}

// ---------------------------------------------------------------------
// Annotation hygiene

func (c *concChecker) checkAnnotations() {
	for _, fn := range c.prog.All {
		if fn.Guards {
			if fn.GuardsWhy == "" {
				c.pass.Reportf(fn.Pkg, fn.Pos, "seclint:guards needs a justification: say why %s must hold a lock across a blocking operation", fn.Name)
			} else if !c.guardsUsed[fn] {
				c.pass.Reportf(fn.Pkg, fn.Pos, "seclint:guards on %s suppresses nothing (no lock is held across a blocking operation); drop the annotation", fn.Name)
			}
		}
		if fn.Detached {
			if fn.DetachedWhy == "" {
				c.pass.Reportf(fn.Pkg, fn.Pos, "seclint:detached needs a justification: say why the %s goroutine may outlive its spawner", fn.Name)
			} else if !c.detachedUsed[fn] {
				c.pass.Reportf(fn.Pkg, fn.Pos, "seclint:detached on %s excuses no goroutine spawn; drop the annotation", fn.Name)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Small shared helpers

// lockObj resolves a lock or channel expression to the object that
// identifies it: the final field in a selector chain, or the variable
// itself. Two mentions of m.sendMu resolve to the same field object, so
// identity is per declared field — conservative across instances.
func lockObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.StarExpr:
		return lockObj(info, e.X)
	case *ast.IndexExpr:
		return lockObj(info, e.X)
	}
	return nil
}

// exprName renders a short receiver-chain name for diagnostics.
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := exprName(e.X); x != "?" {
			return x + "." + e.Sel.Name
		}
		return e.Sel.Name
	case *ast.StarExpr:
		return exprName(e.X)
	case *ast.IndexExpr:
		return exprName(e.X) + "[...]"
	case *ast.CallExpr:
		return exprName(e.Fun) + "()"
	}
	return "?"
}
