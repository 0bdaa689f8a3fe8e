package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifestPath is BENCHMARK.json at the module root, the directory the
// benchmark is run from. It is the one list of metric names, units,
// directions and bounds: the benchmark reports a metric under the unit
// listed there, and fails when it measured a metric that is not listed
// or did not measure one that is.
const manifestPath = "BENCHMARK.json"

// metricDef is one metric of the manifest; per-layer metrics have no
// bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifest struct {
	// Workloads names the workloads of workloads.go and records why each
	// was chosen.
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	// EndToEnd are measured by the end-to-end arm with telemetry off.
	// Two of ISSUE 12's eight are reported next to them but are not
	// listed, because they cannot carry a bound: failed_ratio must be
	// zero (the result line has `attempted` and `failed`), and
	// query_p90_ms spreads by 16–32 % from run to run on comm_tpch; its
	// per-layer stand-in is ladder.procs_p90_ms.
	EndToEnd []metricDef `json:"end_to_end"`
	// PerLayer are measured by the per-layer arm: micro-probes, layer
	// ladder, busy/blocked split and traced pass.
	PerLayer []metricDef `json:"per_layer"`
}

// why returns the recorded reason for a workload.
func (m *manifest) why(workload string) string {
	for _, w := range m.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

func readManifest() (*manifest, error) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, fmt.Errorf("%w (run the benchmark from the module root)", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestPath, err)
	}
	return &m, nil
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// catalogue turns measured values into the reported map, and fails when
// a listed metric was not measured or an unlisted one was.
func catalogue(defs []metricDef, values map[string]float64) (map[string]measurement, error) {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in %s but was not measured", d.Name, manifestPath)
		}
		out[d.Name] = measurement{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not listed in %s", name, manifestPath)
		}
	}
	return out, nil
}
