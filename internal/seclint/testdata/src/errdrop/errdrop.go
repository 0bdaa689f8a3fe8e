// Package errdrop exercises the errdrop analyzer: discarded error
// results in internal/ code. This fixture lives under internal/ (via
// internal/seclint/testdata), so the directory scope fires naturally.
package errdrop

import (
	"bytes"
	"crypto/sha256"
	"os"
)

// Conn mimics the transport surface whose errors must not vanish.
type Conn struct{}

// Send delivers a message.
func (Conn) Send(string) error { return nil }

// Close tears the connection down.
func (Conn) Close() error { return nil }

// Drops loses errors three different ways.
func Drops(c Conn) {
	c.Send("abort")
	_ = c.Close()
	f, _ := os.Open("x")
	if f != nil {
		defer f.Close()
	}
}

// Clean handles every error or uses an exempt sink.
func Clean(c Conn) error {
	if err := c.Send("ok"); err != nil {
		return err
	}
	defer c.Close() // deferred teardown is exempt by design
	h := sha256.New()
	h.Write([]byte("x")) // hash.Hash writes never fail
	var buf bytes.Buffer
	buf.WriteString("y") // in-memory sink
	_ = buf.Len()        // non-error result; blank assign is fine
	return c.Close()
}
