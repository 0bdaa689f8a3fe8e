package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs the whole benchmark in -smoke mode (1 s timed runs,
// 8/80-row relations, 3-query ladder) against real daemons and checks
// that BENCHMARK.json is well formed and that the output holds exactly
// its workloads and metrics, with its units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemons; skipped under -short")
	}
	// The benchmark builds ./cmd/... and reads BENCHMARK.json relative to
	// the module root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	bf, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, want 1..128", n)
	}

	out := filepath.Join(t.TempDir(), "smoke.json")
	if code := run([]string{"-smoke", "-out", out, "-logdir", filepath.Join(t.TempDir(), "logs")}); code != 0 {
		t.Fatalf("bench -smoke exited with status %d", code)
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env.Comparable {
		t.Error("a -smoke report must be marked comparable: false")
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(rep.Runs))
	}

	reported := map[string]*workloadReport{}
	for _, w := range rep.Runs[0].Workloads {
		reported[w.Name] = w
	}
	if len(bf.Workloads) != len(reported) {
		t.Errorf("BENCHMARK.json lists %d workloads, the output has %d", len(bf.Workloads), len(reported))
	}
	for _, bw := range bf.Workloads {
		w := reported[bw.Name]
		if w == nil {
			t.Errorf("workload %s is in BENCHMARK.json but not in the output", bw.Name)
			continue
		}
		if !metricName.MatchString(bw.Name) {
			t.Errorf("workload name %q does not match %v", bw.Name, metricName)
		}
		if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d (%s)", w.Name, w.Correct, w.Attempted, w.Failed, w.FirstError)
		}
		listed := map[string]string{}
		for _, m := range bf.EndToEnd {
			listed[m.Name] = m.Unit
			if m.Bound <= 0 || m.Bound > 0.25 {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
		checkMetrics(t, w.Name+" end-to-end", listed, w.EndToEnd)
		listed = map[string]string{}
		for _, m := range bf.PerLayer {
			listed[m.Name] = m.Unit
		}
		checkMetrics(t, w.Name+" per-layer", listed, w.PerLayer)
	}
}

// checkMetrics asserts that the listed and the reported metrics are the
// same set, with the same non-empty units and well-formed names.
func checkMetrics(t *testing.T, what string, listed map[string]string, got map[string]measurement) {
	t.Helper()
	for name, unit := range listed {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q does not match %v", what, name, metricName)
		}
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json but not in the output", what, name)
		case m.Unit == "" || m.Unit != unit:
			t.Errorf("%s: %s has unit %q in the output, %q in BENCHMARK.json", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := listed[name]; !ok {
			t.Errorf("%s: %s is in the output but not in BENCHMARK.json", what, name)
		}
	}
}
