// Command medbench regenerates the paper's evaluation artifacts from live
// protocol runs:
//
//	medbench -table 1    Table 1  — extra information disclosed to client and mediator
//	medbench -table 2    Table 2  — applied cryptographic primitives
//	medbench -table 3    Section 6 cost matrix (per-party compute, traffic, interactions)
//	medbench -table 4    DAS partitioning trade-off (superset size vs partition count)
//	medbench -table 5    extension ablations (selection pushdown, footnote modes)
//	medbench -table soak query-lifecycle fault-recovery soak: retry
//	                     orchestration + circuit breakers + graceful
//	                     drain under seeded link faults and source
//	                     kill/restart; fails on any invariant
//	                     violation (writes BENCH_soak.json)
//	medbench -table all  Tables 1–5: the paper's evaluation, not the soak
//	                     (which exercises the deployment transport's
//	                     fault recovery)
//
// Workload knobs: -rows, -domain, -overlap, -skew.
// Only the soak writes a machine-readable report; -json overrides its
// path ("-" prints the JSON to stdout, "" keeps BENCH_soak.json).
// Every number is measured from an instrumented in-process run of the real
// protocols, and every run is checked against the plaintext join; nothing
// is hard-coded. Performance is measured by `go run ./bench` on the real
// deployment path, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"
)

var (
	jsonOut      = flag.String("json", "", `soak report path ("" = BENCH_soak.json, "-" = stdout JSON only)`)
	soakClients  = flag.Int("soak-clients", 8, "concurrent query streams in the -table soak steady arm")
	soakDuration = flag.Duration("soak-duration", 10*time.Second, "length of the -table soak steady arm")
	soakSeed     = flag.Uint64("soak-seed", 20070415, "seed of the -table soak fault schedule")
)

// tables is the one list of accepted -table names (besides "all"): it
// drives the dispatch and the flag usage string, and
// TestDocsNameRealTables holds the package comment above and every other
// doc in the repository to it.
var tables = []struct {
	name  string
	paper bool // part of the paper's evaluation, hence of -table all
	run   func(*harness) error
}{
	{"1", true, (*harness).table1},
	{"2", true, (*harness).table2},
	{"3", true, (*harness).table3},
	{"4", true, (*harness).table4},
	{"5", true, (*harness).table5},
	{"soak", false, func(h *harness) error {
		path := *jsonOut
		if path == "" {
			path = "BENCH_soak.json"
		}
		return h.tableSoak(*soakClients, *soakDuration, *soakSeed, path)
	}},
}

// tableNames lists what -table accepts, in usage order.
func tableNames() []string {
	var names []string
	for _, t := range tables {
		names = append(names, t.name)
	}
	return append(names, "all")
}

// runTable runs the named table, or every paper table for "all".
func (h *harness) runTable(name string) error {
	known := false
	for _, t := range tables {
		if t.name == name || (name == "all" && t.paper) {
			known = true
			if err := t.run(h); err != nil {
				return err
			}
		}
	}
	if !known {
		return fmt.Errorf("unknown table %q (want %s)", name, strings.Join(tableNames(), "|"))
	}
	return nil
}

func main() {
	table := flag.String("table", "all", "which table to regenerate: "+strings.Join(tableNames(), "|"))
	rows := flag.Int("rows", 200, "tuples per relation")
	domain := flag.Int("domain", 50, "active-domain size of the join attribute")
	overlap := flag.Float64("overlap", 0.5, "fraction of shared join values")
	skew := flag.Float64("skew", 0, "Zipf skew of join-key multiplicities (0 = uniform)")
	flag.Parse()

	h, err := newHarness(*rows, *domain, *overlap, *skew)
	if err != nil {
		log.Fatalf("medbench: %v", err)
	}
	fmt.Printf("workload: |R1|=|R2|=%d, |domactive|=%d, overlap=%.0f%%, join size=%d\n",
		*rows, *domain, *overlap*100, h.joinSize)
	fmt.Printf("parameters: commutative and PM group P-256\n\n")

	start := time.Now()
	if err := h.runTable(*table); err != nil {
		log.Fatalf("medbench: %v", err)
	}
	fmt.Printf("total measurement time: %v\n", time.Since(start).Round(time.Millisecond))
}

// printAligned renders rows as an aligned table.
func printAligned(rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprint(os.Stdout, b.String())
	fmt.Println()
}

// writeReport writes a machine-readable summary as indented JSON: to
// stdout when path is "-", to the named file otherwise.
func writeReport(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(blob)
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
