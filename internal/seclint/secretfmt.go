package seclint

import (
	"go/ast"
	"strconv"
	"strings"
)

// Secretfmt flags secret-named identifiers flowing into fmt/log
// formatting under content-rendering verbs (%x, %v, %s, ...), into
// String() calls, and into telemetry span labels (Annotate). Keys and
// wrapped keys must never land in error strings or logs: protocol
// errors travel to the mediator verbatim (link.Link.Abort), and
// the mediator is the adversary. Span labels are stricter still — they
// are exported verbatim on the operator-facing /metrics and /trace
// endpoints, so even ciphertexts (which the protocols deliberately
// show the mediator) must stay out of them.
var Secretfmt = &Analyzer{
	Name: "secretfmt",
	Doc:  "secret material formatted into errors, logs, String() or span labels",
	Run:  runSecretfmt,
}

// spanLabelWords extends the secret vocabulary for the Annotate rule:
// ciphertext-named values are not "secret" in the fmt/log sense (the
// mediator processes them by design) but they do not belong on an
// observability endpoint.
var spanLabelWords = map[string]bool{
	"ciphertext": true,
	"cipher":     true,
	"encrypted":  true,
}

// formatFuncs maps formatting functions to the index of their format
// string argument; -1 means every argument is rendered (Print-style).
var formatFuncs = map[string]int{
	"fmt.Errorf":  0,
	"fmt.Sprintf": 0,
	"fmt.Printf":  0,
	"fmt.Fprintf": 1,
	"fmt.Print":   -1,
	"fmt.Println": -1,
	"fmt.Sprint":  -1,
	"fmt.Fprint":  -2, // first arg is the writer
	"log.Printf":  0,
	"log.Fatalf":  0,
	"log.Panicf":  0,
	"log.Print":   -1,
	"log.Println": -1,
	"log.Fatal":   -1,
	"log.Panic":   -1,
}

// leakyVerbs render argument content. %T (type only) and %p (address)
// are deliberately absent, as is %w (wrapped errors are re-checked at
// their own construction site).
const leakyVerbs = "vxXsqdbocU"

func runSecretfmt(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// secret.String() — rendering a secret-named receiver.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "String" && len(call.Args) == 0 {
				if name, ok := secretIn(sel.X); ok {
					p.Reportf(call.Pos(), "String() called on secret material %q; secrets must not be rendered", name)
				}
				return true
			}
			// span.Annotate(key, value) — labels are exported verbatim.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Annotate" {
				for _, arg := range call.Args {
					if lenOfSecret(arg) {
						continue
					}
					if name, ok := labelSecretIn(arg); ok {
						p.Reportf(arg.Pos(), "secret material %q annotated onto a telemetry span by %s; span labels are exported verbatim on /metrics and /trace", name, callLabel(call))
					}
				}
				return true
			}
			for fn, fmtIdx := range formatFuncs {
				pkg, name, _ := strings.Cut(fn, ".")
				if !p.pkgFunc(call, pkg, name) {
					continue
				}
				checkFormatCall(p, call, fmtIdx)
				return true
			}
			return true
		})
	}
}

func checkFormatCall(p *Pass, call *ast.CallExpr, fmtIdx int) {
	if fmtIdx < 0 {
		// Print-style: every rendered argument counts (-2 skips a
		// leading writer argument).
		start := 0
		if fmtIdx == -2 {
			start = 1
		}
		for _, arg := range call.Args[min(start, len(call.Args)):] {
			if lenOfSecret(arg) {
				continue
			}
			if name, ok := secretIn(arg); ok {
				p.Reportf(arg.Pos(), "secret material %q passed to %s; secrets must not reach errors or logs", name, callLabel(call))
			}
		}
		return
	}
	if fmtIdx >= len(call.Args) {
		return
	}
	lit, ok := call.Args[fmtIdx].(*ast.BasicLit)
	if !ok {
		return // non-literal format string: out of scope
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	args := call.Args[fmtIdx+1:]
	for _, v := range parseVerbs(format) {
		if v.arg >= len(args) {
			break
		}
		if !strings.ContainsRune(leakyVerbs, v.verb) {
			continue
		}
		if lenOfSecret(args[v.arg]) {
			continue
		}
		if name, ok := secretIn(args[v.arg]); ok {
			p.Reportf(args[v.arg].Pos(), "secret material %q formatted with %%%c by %s; secrets must not reach errors or logs", name, v.verb, callLabel(call))
		}
	}
}

// labelSecretIn is secretIn with the span-label vocabulary added: it
// returns the first identifier in e that names either secret material
// or ciphertext-shaped payload. Neutral words (keyLen, cipherName, ...)
// override, exactly as in isSecretName.
func labelSecretIn(e ast.Expr) (string, bool) {
	if name, ok := secretIn(e); ok {
		return name, true
	}
	var found string
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		hit := false
		for _, w := range identWords(id.Name) {
			if neutralWords[w] {
				return true
			}
			if spanLabelWords[w] {
				hit = true
			}
		}
		if hit {
			found = id.Name
			return false
		}
		return true
	})
	return found, found != ""
}

// lenOfSecret reports whether arg is len(...) — lengths of key and tag
// material are public protocol constants, so rendering them leaks
// nothing.
func lenOfSecret(arg ast.Expr) bool {
	call, ok := arg.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "len"
}

// verbUse is one conversion in a format string and the argument index
// it consumes.
type verbUse struct {
	verb rune
	arg  int
}

// parseVerbs maps each conversion verb to its argument position,
// accounting for flags, *-widths (which consume an argument) and
// explicit [n] argument indexes.
func parseVerbs(format string) []verbUse {
	var out []verbUse
	arg := 0
	runes := []rune(format)
	for i := 0; i < len(runes); i++ {
		if runes[i] != '%' {
			continue
		}
		i++
		if i >= len(runes) {
			break
		}
		if runes[i] == '%' {
			continue
		}
		// Flags, width, precision; '*' consumes an int argument.
		for i < len(runes) && strings.ContainsRune("+-# 0123456789.*", runes[i]) {
			if runes[i] == '*' {
				arg++
			}
			i++
		}
		// Explicit argument index [n].
		if i < len(runes) && runes[i] == '[' {
			j := i + 1
			num := 0
			for j < len(runes) && runes[j] >= '0' && runes[j] <= '9' {
				num = num*10 + int(runes[j]-'0')
				j++
			}
			if j < len(runes) && runes[j] == ']' && num > 0 {
				arg = num - 1
				i = j + 1
			}
		}
		if i >= len(runes) {
			break
		}
		out = append(out, verbUse{verb: runes[i], arg: arg})
		arg++
	}
	return out
}
