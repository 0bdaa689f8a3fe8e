// Command bench is the repository's one benchmark: four workloads on the
// real deployment path (cmd/mediator and two cmd/datasource processes
// driven through medclient's stack), measured end to end with telemetry
// off, and decomposed layer by layer by micro-probes, a layer ladder and
// a traced pass. See README.md in this directory and BENCHMARK.json at
// the module root.
//
// Usage, from the module root:
//
//	go run ./bench                          every workload, both arms
//	go run ./bench --workload das_tpch --seed 7 --seconds 20 --trace 0
//	go run ./bench -runs 10 -trace 0 -out a.json
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Defaults of the contract: BENCHMARK.json's run_seconds and the seed
// ISSUE 12 fixed.
const (
	defaultSeconds = 20
	defaultSeed    = 19920817
)

type options struct {
	workloads []*workloadSpec
	seed      int64
	seconds   int
	arms      []int // 0 = end to end, 1 = per layer
	runs      int
	smoke     bool
	traceOut  string
	logDir    string
	// comparable is false when -seconds, -workload or -smoke changed
	// what a default run measures.
	comparable bool
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "comma-separated workloads to run (default: all four); with exactly one, the last line of output is the contract's result object")
	seed := fs.Int64("seed", defaultSeed, "workload seed; run i of -runs uses seed+i")
	seconds := fs.Int("seconds", defaultSeconds, "length of the timed run; the per-layer arm scales its query counts by it")
	trace := fs.Int("trace", -1, "0: end-to-end arm only, 1: per-layer arm only (default: both)")
	runs := fs.Int("runs", 1, "repeat everything this many times, for -compare")
	smoke := fs.Bool("smoke", false, "tiny relations and counts: checks the harness, measures nothing")
	out := fs.String("out", "", "write the report as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the benchmark's own spans of the traced pass as a Chrome trace")
	logDir := fs.String("logdir", filepath.Join(buildDir, "logs"), "directory for the daemons' stderr")
	history := fs.String("history", "", "append one commit-keyed JSON line per invocation to this file")
	compare := fs.Bool("compare", false, "compare two report files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(os.Stderr, "bench:", msg)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			return usage("-compare needs two report files")
		}
		return compareReports(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	opt := options{seed: *seed, seconds: *seconds, runs: *runs, smoke: *smoke,
		traceOut: *traceOut, logDir: *logDir, workloads: workloads,
		comparable: !*smoke && *seconds == defaultSeconds && *workload == ""}
	if *workload != "" {
		opt.workloads = nil
		for _, name := range strings.Split(*workload, ",") {
			w := findWorkload(strings.TrimSpace(name))
			if w == nil {
				return usage(fmt.Sprintf("unknown workload %q", name))
			}
			opt.workloads = append(opt.workloads, w)
		}
	}
	switch *trace {
	case -1:
		opt.arms = []int{0, 1}
	case 0, 1:
		opt.arms = []int{*trace}
	default:
		return usage("-trace is 0 or 1")
	}
	if opt.seconds < 1 || opt.runs < 1 {
		return usage("-seconds and -runs must be at least 1")
	}

	rep, err := measure(opt)
	if err == nil && *out != "" {
		err = writeJSON(*out, rep)
	}
	if err == nil && *history != "" {
		err = appendHistory(*history, rep)
	}
	var line []byte
	if err == nil && len(opt.workloads) == 1 {
		// The benchmark contract: one JSON object, last on standard output.
		line, err = json.Marshal(rep.Runs[len(rep.Runs)-1].Workloads[0].resultLine())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if line != nil {
		fmt.Println(string(line))
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// live tracks the running deployments so that a signal can kill them.
var live struct {
	sync.Mutex
	deployments map[*deployment]bool
}

func track(dp *deployment, on bool) {
	live.Lock()
	defer live.Unlock()
	if live.deployments == nil {
		live.deployments = map[*deployment]bool{}
	}
	if on {
		live.deployments[dp] = true
	} else {
		delete(live.deployments, dp)
	}
}

// killOnSignal ends every daemon when the benchmark itself is told to
// stop; all other exit paths run the deferred kills.
func killOnSignal() (stop func()) {
	sigs := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigs:
			live.Lock()
			var all []*deployment
			for dp := range live.deployments {
				all = append(all, dp)
			}
			live.Unlock()
			for _, dp := range all {
				dp.kill()
			}
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sigs)
		close(done)
	}
}

// measure builds the daemons once and runs every selected workload and
// arm, opt.runs times.
func measure(opt options) (*report, error) {
	defer killOnSignal()()
	man, err := readManifest()
	if err != nil {
		return nil, err
	}
	rep := &report{Schema: reportSchema, Env: readEnv(opt)}
	binDir := filepath.Join(buildDir, "bin")
	if rep.Env.BuildS, err = buildDaemons(binDir); err != nil {
		return nil, err
	}
	for i := 0; i < opt.runs; i++ {
		seed := opt.seed + int64(i)
		r := runReport{Seed: seed}
		for _, w := range opt.workloads {
			wr, err := measureWorkload(w, seed, opt, man, binDir)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			wr.print(os.Stdout, man)
			r.Workloads = append(r.Workloads, wr)
		}
		rep.Runs = append(rep.Runs, r)
	}
	return rep, nil
}

// measureWorkload runs the selected arms on one workload and one seed.
func measureWorkload(w *workloadSpec, seed int64, opt options, man *manifest, binDir string) (*workloadReport, error) {
	dataDir := filepath.Join(buildDir, "data", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(dataDir)
	ds, err := prepareDataset(w, seed, opt.smoke, dataDir)
	if err != nil {
		return nil, err
	}
	wr := &workloadReport{Name: w.Name, Why: man.why(w.Name), Clients: w.clients(),
		Durations: map[string]float64{"datagen_s": ds.datagenS}}
	for _, arm := range opt.arms {
		start := time.Now()
		if arm == 0 {
			err = measureEndToEnd(ds, opt, man, binDir, wr)
		} else {
			err = measurePerLayer(ds, opt, man, binDir, wr)
		}
		if err != nil {
			return nil, err
		}
		wr.Durations[fmt.Sprintf("arm%d_s", arm)] = time.Since(start).Seconds()
	}
	wr.Correct = wr.Failed == 0
	return wr, nil
}

func measureEndToEnd(ds *dataset, opt options, man *manifest, binDir string, wr *workloadReport) error {
	cfg := e2eConfig{binDir: binDir, logDir: opt.logDir, setups: 5,
		warmup: 2 * time.Second, timed: time.Duration(opt.seconds) * time.Second}
	if opt.smoke {
		cfg.setups, cfg.warmup, cfg.timed = 1, 100*time.Millisecond, time.Second
	}
	res, err := runE2E(ds, cfg)
	if err != nil {
		return err
	}
	wr.account(res.outcome)
	wr.Samples, wr.P90Ms, wr.SetupRuns = res.samples, res.p90Ms, res.setups
	wr.Durations["timed_s"] = res.timedS
	wr.EndToEnd, err = catalogue(man.EndToEnd, res.metrics)
	return err
}

func measurePerLayer(ds *dataset, opt options, man *manifest, binDir string, wr *workloadReport) error {
	// The fixed query counts are those of a defaultSeconds run, scaled.
	count := func(base int) int {
		n := base * opt.seconds / defaultSeconds
		if opt.smoke || n < 3 {
			return 3
		}
		return n
	}
	traced := ds.w.TracedQueries
	lad, err := runLadder(ds, ladderConfig{queries: count(traced / 4), procsQueries: count(traced / 2),
		binDir: binDir, logDir: opt.logDir})
	if err != nil {
		return err
	}
	wr.account(lad.outcome)
	budget := probeBudget{batches: 5, batch: 20 * time.Millisecond}
	if opt.smoke {
		budget = probeBudget{batches: 1, batch: time.Millisecond}
	}
	values, err := runProbes(probeInput{id: ds.id, w: ds.w, r1: ds.r1, r2: ds.r2,
		expected: ds.expected, largest: lad.largest}, budget)
	if err != nil {
		return err
	}
	sl := newSpanLog()
	tr, err := runTraced(ds, tracedConfig{queries: count(traced), binDir: binDir,
		logDir: opt.logDir, untracedP50Ms: lad.metrics["ladder.procs_ms"]}, sl)
	if err != nil {
		return err
	}
	wr.account(tr.outcome)
	for _, m := range []map[string]float64{lad.metrics, tr.metrics} {
		for k, v := range m {
			values[k] = v
		}
	}
	if wr.PerLayer, err = catalogue(man.PerLayer, values); err != nil {
		return err
	}
	if opt.traceOut != "" {
		return sl.writeChromeTrace(opt.traceOut, ds.w.Name)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
