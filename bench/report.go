package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const reportSchema = "secmediation-bench/1"

var errNoRuns = errors.New("report holds no runs")

// envReport records the noise controls of one invocation.
type envReport struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Load1      float64 `json:"load1_at_start"`
	// Noisy is set when the 1-minute load average at start exceeded nproc.
	Noisy bool `json:"noisy"`
	// Comparable is false when -seconds, -workload(s) or -smoke changed
	// what a default run measures.
	Comparable bool    `json:"comparable"`
	BuildS     float64 `json:"build_s"`
	Time       string  `json:"time"`
}

type report struct {
	Schema string      `json:"schema"`
	Env    envReport   `json:"env"`
	Runs   []runReport `json:"runs"`
}

type runReport struct {
	Seed      int64             `json:"seed"`
	Workloads []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name        string                 `json:"name"`
	Why         string                 `json:"why"`
	Clients     int                    `json:"clients"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedRatio float64                `json:"failed_ratio"`
	P90Ms       float64                `json:"query_p90_ms,omitempty"`
	FirstError  string                 `json:"first_error,omitempty"`
	Samples     int                    `json:"samples,omitempty"`
	SetupRuns   []float64              `json:"setup_runs_s,omitempty"`
	Durations   map[string]float64     `json:"durations"`
	EndToEnd    map[string]measurement `json:"end_to_end,omitempty"`
	PerLayer    map[string]measurement `json:"per_layer,omitempty"`
}

func (wr *workloadReport) account(o outcome) {
	wr.Attempted += o.attempted
	wr.Failed += o.failed
	if wr.Attempted > 0 {
		wr.FailedRatio = float64(wr.Failed) / float64(wr.Attempted)
	}
	if wr.FirstError == "" && o.firstErr != nil {
		wr.FirstError = o.firstErr.Error()
	}
}

// resultLine is the object the benchmark contract wants on the last
// line of standard output.
func (wr *workloadReport) resultLine() map[string]any {
	metrics := map[string]measurement{}
	for k, v := range wr.EndToEnd {
		metrics[k] = v
	}
	for k, v := range wr.PerLayer {
		metrics[k] = v
	}
	return map[string]any{"correct": wr.Correct, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics}
}

// print lists every metric by name with its unit, in the manifest's order.
func (wr *workloadReport) print(w io.Writer, man *manifest) {
	fmt.Fprintf(w, "== %s (%d client(s)): %d queries attempted, %d failed (failed_ratio %.4g)\n",
		wr.Name, wr.Clients, wr.Attempted, wr.Failed, wr.FailedRatio)
	if wr.FirstError != "" {
		fmt.Fprintf(w, "   first error: %s\n", wr.FirstError)
	}
	for _, k := range sortedKeys(wr.Durations) {
		fmt.Fprintf(w, "   %-34s %12.3f s\n", k, wr.Durations[k])
	}
	if wr.Samples > 0 {
		fmt.Fprintf(w, "   %-34s %12d\n", "samples", wr.Samples)
		fmt.Fprintf(w, "   %-34s %14.6g ms (no bound)\n", "query_p90_ms", wr.P90Ms)
	}
	for _, group := range []struct {
		defs   []metricDef
		values map[string]measurement
	}{{man.EndToEnd, wr.EndToEnd}, {man.PerLayer, wr.PerLayer}} {
		for _, d := range group.defs {
			if m, ok := group.values[d.Name]; ok {
				fmt.Fprintf(w, "   %-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
}

func (r *report) correct() bool {
	for _, run := range r.Runs {
		for _, w := range run.Workloads {
			if !w.Correct {
				return false
			}
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func readEnv(opt options) envReport {
	env := envReport{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: opt.seed, Seconds: opt.seconds, Smoke: opt.smoke, Comparable: opt.comparable,
		Time: time.Now().UTC().Format(time.RFC3339)}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			env.Load1, _ = strconv.ParseFloat(f[0], 64) // stays 0 when unreadable
		}
	}
	env.Noisy = env.Load1 > float64(env.NProc)
	return env
}

// endToEndValues collapses a report's runs into workload → end-to-end
// metric → the values of all runs.
func (r *report) endToEndValues() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range r.Runs {
		for _, w := range run.Workloads {
			if out[w.Name] == nil {
				out[w.Name] = map[string][]float64{}
			}
			for name, m := range w.EndToEnd {
				out[w.Name][name] = append(out[w.Name][name], m.Value)
			}
		}
	}
	return out
}

// appendHistory adds one line, keyed by commit, holding the median of
// every end-to-end metric per workload.
func appendHistory(path string, r *report) error {
	line := map[string]any{"commit": r.Env.Commit, "time": r.Env.Time, "env": r.Env}
	meds := map[string]map[string]float64{}
	for wl, metrics := range r.endToEndValues() {
		meds[wl] = map[string]float64{}
		for name, vals := range metrics {
			meds[wl][name] = median(vals)
		}
	}
	line["end_to_end"] = meds
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s: %w", path, errNoRuns)
	}
	return &r, nil
}

// spread is the interquartile range over the median, with the quartiles
// of Python's statistics.quantiles(values, n=4) (exclusive method).
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / med
}

// compareReports prints one row per workload × end-to-end metric: both
// medians, the relative change in the worse direction, the bound from
// BENCHMARK.json and a verdict. A metric is unresolved when either
// side's spread is wider than the bound. It returns 1 on a regression.
func compareReports(pathA, pathB string, w io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readReport(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readReport(pathB)
	if err != nil {
		return fail(err)
	}
	man, err := readManifest()
	if err != nil {
		return fail(err)
	}
	if !a.Env.Comparable || !b.Env.Comparable {
		fmt.Fprintln(w, "warning: at least one report was made with overrides (comparable: false)")
	}
	va, vb := a.endToEndValues(), b.endToEndValues()
	out := bufio.NewWriter(w)
	defer out.Flush()
	fmt.Fprintf(out, "%-20s %-24s %14s %14s %9s %7s %8s %8s  %s\n",
		"workload", "metric", "a median", "b median", "worse by", "bound", "spread a", "spread b", "verdict")
	regressed := false
	for _, wl := range sortedKeys(va) {
		for _, m := range man.EndToEnd {
			xa, xb := va[wl][m.Name], vb[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := 0.0
			if ma != 0 {
				worse = (mb - ma) / ma
				if m.Better == "higher" {
					worse = -worse
				}
			}
			sa, sb := spread(xa), spread(xb)
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				// The benchmark contract gates the medians of setup_s
				// but not its spread: a set-up is too short to be steady.
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(out, "%-20s %-24s %14.6g %14.6g %+8.2f%% %6.0f%% %7.2f%% %7.2f%%  %s\n",
				wl, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
