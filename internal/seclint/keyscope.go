package seclint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Keyscope confines private-key material to the party that generated
// it. Key-bearing types are declared with seclint:private (or come from
// the built-in stdlib table: rsa/ecdsa/ed25519 private keys) and the
// check is structural — a struct, slice, map, pointer or channel that
// can transitively hold a private key counts as key-bearing. Two rules:
//
//  1. Wire rule (all parties): no argument of a seclint:wire function —
//     the encode points of the transport layer — may be key-bearing.
//     Private keys never cross a link, in either direction.
//  2. Mediator rule: no function reachable from a mediator entry point
//     may declare, receive or reference a key-bearing value. The
//     untrusted mediator holds public keys only.
var Keyscope = &Analyzer{
	Name:       "keyscope",
	Doc:        "private-key material stays with the party that generated it",
	RunProgram: runKeyscope,
}

func runKeyscope(pass *ProgramPass) {
	p := pass.Program
	for _, wc := range p.WireCalls {
		for _, arg := range wc.Call.Args {
			t := wc.Pkg.Info.TypeOf(arg)
			if t == nil || types.IsInterface(t) {
				continue // the payload parameter itself is `any`
			}
			if name, leaky := p.containsPrivate(t); leaky {
				pass.Reportf(wc.Pkg, arg.Pos(),
					"private-key material %s is encoded onto a transport link via %s: keys never leave the party that generated them",
					name, shortType(t))
			}
		}
	}
	for _, fn := range p.MediatorReachable() {
		// Closure bodies are covered by their declaring function's
		// walk (a reachable closure implies a reachable creator).
		if fn.Decl == nil || fn.Decl.Body == nil || fn.Pkg == nil || fn.Pkg.Info == nil {
			continue
		}
		reported := make(map[types.Object]bool)
		check := func(obj types.Object, pos token.Pos) {
			v, ok := obj.(*types.Var)
			if !ok || reported[obj] {
				return
			}
			if name, leaky := p.containsPrivate(v.Type()); leaky {
				reported[obj] = true
				pass.Reportf(fn.Pkg, pos,
					"mediator-reachable code holds private-key material %s (through %q): the untrusted mediator may hold public keys only [path %s]",
					name, v.Name(), p.Trace(fn))
			}
		}
		if sig, ok := fn.Obj.Type().(*types.Signature); ok {
			if recv := sig.Recv(); recv != nil {
				check(recv, fn.Pos)
			}
			for i := 0; i < sig.Params().Len(); i++ {
				check(sig.Params().At(i), fn.Pos)
			}
			for i := 0; i < sig.Results().Len(); i++ {
				check(sig.Results().At(i), fn.Pos)
			}
		}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if obj := fn.Pkg.Info.Defs[id]; obj != nil {
				check(obj, id.Pos())
			}
			if obj := fn.Pkg.Info.Uses[id]; obj != nil {
				check(obj, id.Pos())
			}
			return true
		})
	}
}

// shortType renders a type with package-name (not path) qualifiers.
func shortType(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
