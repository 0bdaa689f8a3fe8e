// Package secretfmt exercises the secretfmt analyzer: secret material
// flowing into fmt/log rendering verbs or String().
package secretfmt

import (
	"fmt"
	"io"
	"log"
)

// WrappedKey is an opaque wrapped session key.
type WrappedKey []byte

// String renders a placeholder, never the key bytes.
func (WrappedKey) String() string { return "WrappedKey(opaque)" }

// Errors builds diagnostics around a session key.
func Errors(sessionKey []byte, rows int) error {
	err := fmt.Errorf("unwrap failed for key %x", sessionKey)
	log.Printf("bad mac: %v", sessionKey)
	fmt.Printf("key type is %T\n", sessionKey)                // %T renders the type only
	_ = fmt.Sprintf("matched %d rows", rows)                  // no secret argument
	_ = fmt.Sprintf("key is %d bytes", len(sessionKey))       // len of a secret is public
	return err
}

// Fprint exercises writer-first variants.
func Fprint(w io.Writer, macTag []byte) {
	fmt.Fprintf(w, "tag=%x\n", macTag)
	fmt.Fprint(w, "done")              // no secret argument
}

// Print exercises Print-style variadic rendering.
func Print(hmacKey []byte) {
	fmt.Println("derived", hmacKey)
}

// Render calls String() on a secret-named value.
func Render(sessionKey WrappedKey) string {
	return sessionKey.String()
}

// RenderRow calls String() on a non-secret value; fine.
func RenderRow(row WrappedKey) string {
	return row.String()
}

// Span mimics a telemetry span: labels set via Annotate are exported
// verbatim on the observability endpoints.
type Span struct{}

// Annotate attaches a label to the span.
func (*Span) Annotate(key, value string) {}

// AnnotateSpans exercises the span-label rule: ciphertexts and keys
// must never become labels, while protocol metadata may.
func AnnotateSpans(sp *Span, ciphertext []byte, sessionKey []byte, protoName string) {
	sp.Annotate("payload", string(ciphertext))
	sp.Annotate("session", string(sessionKey))
	sp.Annotate("protocol", protoName)         // public metadata; fine
	cipherName := "pohlig-hellman"
	sp.Annotate("scheme", cipherName) // neutral word overrides; fine
}
