package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// joinShape fixes the sizes of a workload's two relations: R1 has Keys1
// distinct join keys with Mult1 rows each, R2 likewise, and Overlap is
// the share of R2's keys that also occur in R1.
type joinShape struct {
	Keys1, Mult1 int
	Keys2, Mult2 int
	Overlap      float64
}

// workloadSpec is one benchmark workload. All run joinSQL; BENCHMARK.json
// records why each exists, bench/README.md at more length.
type workloadSpec struct {
	Name     string
	Protocol string
	Shape    joinShape
	// Smoke is the shape -smoke substitutes (8- and 80-row relations).
	Smoke joinShape
	// PMBuckets pins Params.Buckets for the PM workload.
	PMBuckets int
	// Clients is the number of closed-loop clients; capped at nproc.
	Clients int
	// TracedQueries is the fixed query count of the traced pass and of
	// the procs rung at the contract's default run length.
	TracedQueries int
}

// R1 is customer, R2 is orders: the orders⋈customer shape of the old
// `medbench -table large`, at the size where a query takes 0.1–0.4 s.
var tpch = joinShape{Keys1: 150, Mult1: 1, Keys2: 100, Mult2: 15, Overlap: 1}

var workloads = []*workloadSpec{
	{
		Name:     "comm_tpch",
		Protocol: "commutative", Shape: tpch,
		Smoke:   joinShape{Keys1: 8, Mult1: 1, Keys2: 8, Mult2: 10, Overlap: 1},
		Clients: 1, TracedQueries: 40,
	},
	{
		Name:     "das_tpch",
		Protocol: "das", Shape: tpch,
		Smoke:   joinShape{Keys1: 8, Mult1: 1, Keys2: 8, Mult2: 10, Overlap: 1},
		Clients: 1, TracedQueries: 40,
	},
	{
		Name:     "pm_small",
		Protocol: "pm", Shape: joinShape{Keys1: 45, Mult1: 1, Keys2: 30, Mult2: 15, Overlap: 1},
		Smoke:     joinShape{Keys1: 8, Mult1: 1, Keys2: 8, Mult2: 10, Overlap: 1},
		PMBuckets: 4,
		Clients:   1, TracedQueries: 20,
	},
	{
		Name:     "das_tiny_concurrent",
		Protocol: "das", Shape: joinShape{Keys1: 8, Mult1: 2, Keys2: 8, Mult2: 2, Overlap: 0.5},
		Smoke:   joinShape{Keys1: 4, Mult1: 2, Keys2: 4, Mult2: 2, Overlap: 0.5},
		Clients: 2, TracedQueries: 400,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// clients caps the workload's client count at the processor count.
func (w *workloadSpec) clients() int {
	if n := runtime.NumCPU(); w.Clients > n {
		return n
	}
	return w.Clients
}

// dataset is one workload's generated input on disk and in memory.
type dataset struct {
	w        *workloadSpec
	dir      string
	r1, r2   *Relation
	expected *Relation
	want     digest
	id       *identity
	// datagenS is the time spent generating relations, keys and files.
	datagenS float64
}

// prepareDataset generates a workload's inputs from the seed and writes
// the CSV, PEM and credential files the daemons and the client load.
func prepareDataset(w *workloadSpec, seed int64, smoke bool, dir string) (*dataset, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	shape := w.Shape
	if smoke {
		shape = w.Smoke
	}
	r1, r2, err := generateRelations(shape, seed)
	if err != nil {
		return nil, err
	}
	expected, err := plaintextJoin(r1, r2)
	if err != nil {
		return nil, err
	}
	if expected.Len() == 0 {
		return nil, fmt.Errorf("workload %s: empty expected join", w.Name)
	}
	if err := writeCSVFile(r1, filepath.Join(dir, "r1.csv")); err != nil {
		return nil, err
	}
	if err := writeCSVFile(r2, filepath.Join(dir, "r2.csv")); err != nil {
		return nil, err
	}
	id, err := prepareIdentity(dir)
	if err != nil {
		return nil, err
	}
	return &dataset{w: w, dir: dir, r1: r1, r2: r2, expected: expected,
		want: digestOf(expected), id: id, datagenS: time.Since(start).Seconds()}, nil
}

// verify checks one query result against the plaintext join.
func (d *dataset) verify(res *Relation) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if got := digestOf(res); got != d.want {
		return fmt.Errorf("wrong result: %d rows (digest %x), want %d rows (digest %x)",
			got.Rows, got.Sum, d.want.Rows, d.want.Sum)
	}
	return nil
}
