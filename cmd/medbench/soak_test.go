package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSoakShort is the `make soak-short` entry point: a compressed run
// of the full chaos soak (restart, steady, overload and drain arms) on
// a tiny workload, asserting the BENCH_soak.json schema and the
// resilience acceptance contract — the restart-arm query recovers
// through the breaker's closed→open→half-open→closed walk, the drain
// arm completes its in-flight session while rejecting new ones with a
// typed error, and no goroutine survives the soak. tableSoak itself
// returns an error on any invariant violation, so the schema checks
// here guard the report shape on top of the behavioral gate.
func TestSoakShort(t *testing.T) {
	if testing.Short() {
		t.Skip("the soak drives live TCP deployments through fault schedules; skipped with -short")
	}
	h, err := newHarness(12, 6, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "soak.json")
	if err := h.tableSoak(4, 1500*time.Millisecond, 20070415, path); err != nil {
		t.Fatalf("soak invariants: %v", err)
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r soakReport
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if r.Cores < 1 || r.GOMAXPROCS < 1 || r.GOOS == "" || r.GOARCH == "" {
		t.Errorf("soak report runner fields: %+v", r)
	}
	if r.Seed != 20070415 || r.Protocol == "" || r.DurationNs <= 0 {
		t.Errorf("soak report run fields: seed=%d protocol=%q duration=%d", r.Seed, r.Protocol, r.DurationNs)
	}
	if !r.Restart.Recovered || r.Restart.Attempts < 2 {
		t.Errorf("restart arm did not record a recovery: %+v", r.Restart)
	}
	for _, want := range []string{"S1:closed>open", "S1:open>half-open", "S1:half-open>closed"} {
		found := false
		for _, tr := range r.Restart.Transitions {
			if tr == want {
				found = true
			}
		}
		if !found {
			t.Errorf("restart arm transitions %v missing %q", r.Restart.Transitions, want)
		}
	}
	if r.Steady.Queries < 1 || r.Steady.Succeeded < 1 || r.Steady.Clients != 4 {
		t.Errorf("steady arm shape: %+v", r.Steady)
	}
	if got := r.Steady.Succeeded + r.Steady.Exhausted + r.Steady.Terminal; got != r.Steady.Queries {
		t.Errorf("steady arm outcomes: %d succeeded + %d exhausted + %d terminal != %d queries",
			r.Steady.Succeeded, r.Steady.Exhausted, r.Steady.Terminal, r.Steady.Queries)
	}
	if r.Overload.Succeeded != r.Overload.Clients || r.Overload.ServerRejects < 1 {
		t.Errorf("overload arm: %+v", r.Overload)
	}
	if r.Drain.InFlight != 1 || !r.Drain.DrainedClean || r.Drain.RejectedDraining < 1 || r.Drain.SessionsDrained < 1 {
		t.Errorf("drain arm: %+v", r.Drain)
	}
	if r.QueriesRecovered < 1 || r.RetriesAttempted < 1 {
		t.Errorf("soak totals: recovered=%d retries=%d, want both >= 1", r.QueriesRecovered, r.RetriesAttempted)
	}
	if !r.BreakerReclosed {
		t.Error("breakers did not re-close after the faults stopped")
	}
	if r.GoroutineLeaks != 0 {
		t.Errorf("%d goroutine leaks", r.GoroutineLeaks)
	}
	if len(r.Violations) != 0 {
		t.Errorf("violations in report: %v", r.Violations)
	}
}
