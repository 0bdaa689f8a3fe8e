package seclint

import (
	"go/ast"
	"strings"
)

// The seclint annotation convention marks the role boundaries the call
// graph cannot infer on its own. A doc-comment line of the form
//
//	// seclint:<kind> <text>
//
// attaches a machine-readable fact to the declaration it documents.
// The kinds, and where they are legal:
//
//	seclint:source <why>       on a func: its results (or the values it
//	                           hands out) are plaintext — decryption
//	                           outputs, tuple materialization, plaintext
//	                           joins. Reaching one from a mediator entry
//	                           point is a plaintaint finding.
//	seclint:sanitizer <why>    on a func: an audited encrypt boundary.
//	                           Taint traversal does not descend into it,
//	                           so a decrypt inside (e.g. re-encryption)
//	                           is accepted as declared trust.
//	seclint:entry <role>       on a func: a protocol entry point of the
//	                           named role; "mediator" entries seed the
//	                           mediator-reachability analysis. Exported
//	                           methods of internal/mediation.Mediator
//	                           are entries automatically.
//	seclint:private <why>      on a type: the type holds private-key
//	                           material; keyscope confines it.
//	seclint:boundary <party>   on a named func type: calling a value of
//	                           this type crosses a link to the named
//	                           party, so the static call graph correctly
//	                           ends there (e.g. mediation.Dialer).
//	seclint:wire <why>         on a func: its arguments are encoded
//	                           onto a transport link; keyscope checks
//	                           every argument type at every call site.
//	seclint:secret <what>      on a struct field or var: the value is
//	                           secret key material whose bits must not
//	                           shape execution timing (cttaint seeds its
//	                           value-taint here). On a func: if every
//	                           whitespace-separated word of <what> names
//	                           a parameter, those parameters are secret;
//	                           otherwise the function's results are.
//	seclint:guards <why>       on a func: it deliberately holds a lock
//	                           across a blocking operation — an audited
//	                           serialization point (e.g. one frame at a
//	                           time onto a shared link). conccheck
//	                           suppresses its lock-across-blocking rule
//	                           inside and requires the justification.
//	seclint:detached <why>     on a func: its goroutine intentionally
//	                           outlives supervision (a process-lifetime
//	                           pump). conccheck accepts spawning it, and
//	                           any spawn made inside it, without a
//	                           termination proof.
//	seclint:blocking <why>     on a func: calling it may block on a
//	                           waiting primitive the analysis cannot see
//	                           (e.g. behind an interface or cgo-shaped
//	                           boundary); conccheck adds it to the
//	                           blocking table.
//
// Unknown kinds and kinds on the wrong declaration form are themselves
// reported (by plaintaint, cttaint and conccheck), so the convention
// cannot drift silently.
const (
	annSource    = "source"
	annSanitizer = "sanitizer"
	annEntry     = "entry"
	annPrivate   = "private"
	annBoundary  = "boundary"
	annWire      = "wire"
	annSecret    = "secret"
	annGuards    = "guards"
	annDetached  = "detached"
	annBlocking  = "blocking"
)

// annotation is one parsed seclint:<kind> doc-comment line.
type annotation struct {
	Kind string
	// Text is everything after the kind: a justification for
	// source/sanitizer/private/wire, a role for entry, a party for
	// boundary.
	Text string
}

// parseAnnotations extracts every seclint: line from a doc comment.
func parseAnnotations(doc *ast.CommentGroup) []annotation {
	if doc == nil {
		return nil
	}
	var out []annotation
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		rest, ok := strings.CutPrefix(text, "seclint:")
		if !ok {
			continue
		}
		kind, arg, _ := strings.Cut(rest, " ")
		if kind = strings.TrimSpace(kind); kind == "" {
			continue
		}
		out = append(out, annotation{Kind: kind, Text: strings.TrimSpace(arg)})
	}
	return out
}

// textOr substitutes a fallback for annotations written without a why.
func textOr(text, fallback string) string {
	if text == "" {
		return fallback
	}
	return text
}
