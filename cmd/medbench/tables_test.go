package main

import (
	"strings"
	"testing"
)

// TestPaperTables runs the `-table all` dispatch — Tables 1–5 — on tiny
// rows. Every run behind every row (five protocols, seven Table-5
// variants) is compared to the plaintext join inside harness.run, so a
// table that would print a number measured on a wrong result fails here.
func TestPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("a full (if tiny) protocol sweep; skipped with -short")
	}
	h, err := newHarness(12, 6, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.runTable("all"); err != nil {
		t.Fatal(err)
	}
	if err := h.runTable("parallel"); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Errorf(`-table parallel: got %v, want an "unknown table" error`, err)
	}
}
