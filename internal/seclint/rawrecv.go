package seclint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Rawrecv flags direct transport.Conn.Recv calls inside internal/mediation.
// Protocol code must receive through the recvExpect / recvInto helpers:
// they are the single place where peer msgError payloads become typed
// *ProtocolError aborts and where link failures (including deadline
// expiry) get attributed to the party behind the link. A raw Recv bypasses all of that — a peer's abort notification
// would surface as a bogus type-mismatch or, worse, be treated as data.
var Rawrecv = &Analyzer{
	Name: "rawrecv",
	Doc:  "direct Conn.Recv in internal/mediation bypassing the abort-aware recvExpect helper",
	Run:  runRawrecv,
}

func runRawrecv(p *Pass) {
	if !p.InDir("internal/mediation") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Recv" {
				return true
			}
			if !isTransportConn(p.TypeOf(sel.X), true) {
				return true
			}
			p.Reportf(call.Pos(), "direct transport.Conn.Recv bypasses recvExpect (msgError handling, abort attribution); receive through recvExpect/recvInto")
			return true
		})
	}
}

// isTransportConn reports whether t is the transport.Conn interface (or a
// pointer to it). A nil type (missing info) returns defaultTo — in
// internal/mediation only transport conns carry Recv, so failing
// closed is the safe degradation.
func isTransportConn(t types.Type, defaultTo bool) bool {
	if t == nil {
		return defaultTo
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Conn" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "internal/transport" || strings.HasSuffix(path, "/internal/transport")
}
