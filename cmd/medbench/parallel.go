package main

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"time"

	"github.com/secmediation/secmediation/internal/crypto/paillier"
	"github.com/secmediation/secmediation/internal/mediation"
)

// parallelProtocolRun is one (protocol, workers) measurement.
type parallelProtocolRun struct {
	Protocol string  `json:"protocol"`
	Workers  int     `json:"workers"`
	WallNs   int64   `json:"wall_ns"`
	Speedup  float64 `json:"speedup_vs_sequential"`
}

// parallelPaillierRun is the fixed-base precomputation measurement — the
// part of the execution layer whose speedup is core-count independent.
type parallelPaillierRun struct {
	Bits            int     `json:"bits"`
	TextbookNsPerOp int64   `json:"textbook_ns_per_op"`
	FixedBaseNsOp   int64   `json:"fixed_base_ns_per_op"`
	PrecomputeNs    int64   `json:"precompute_ns"`
	Speedup         float64 `json:"speedup"`
}

// parallelReport is the BENCH_parallel.json schema. Cores and GOMAXPROCS
// record the runner honestly (both, separately: NumCPU is the hardware,
// GOMAXPROCS what the scheduler may actually use): worker-pool speedups
// only manifest when their minimum exceeds 1, while the Paillier
// fixed-base and commutative-engine speedups hold on any runner.
type parallelReport struct {
	Cores      int                   `json:"cores"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	GOOS       string                `json:"goos"`
	GOARCH     string                `json:"goarch"`
	Rows       int                   `json:"rows_per_relation"`
	Domain     int                   `json:"active_domain"`
	Protocols  []parallelProtocolRun `json:"protocols"`
	Paillier   parallelPaillierRun   `json:"paillier_fixed_base"`
	Engine     commutativeEngineRun  `json:"commutative_engine"`
}

// tableParallel measures the parallel crypto execution layer: each
// ciphertext protocol end-to-end at Workers 1 / 2 / NumCPU, the
// Paillier fixed-base randomizer precomputation, and the commutative
// fast-exponentiation engine before/after, and writes the summary to
// jsonPath (skipped when empty).
func (h *harness) tableParallel(jsonPath string) error {
	cores := runtime.NumCPU()
	maxprocs := runtime.GOMAXPROCS(0)
	fmt.Printf("Parallel execution layer (runner: %d core(s), GOMAXPROCS=%d, %s/%s)\n",
		cores, maxprocs, runtime.GOOS, runtime.GOARCH)
	if effective := min(cores, maxprocs); effective == 1 {
		fmt.Println()
		fmt.Println("  ********************************************************************")
		fmt.Println("  *  WARNING: effective cores == 1 on this runner.                   *")
		fmt.Println("  *  Worker-pool speedups CANNOT manifest here: every speedup-vs-    *")
		fmt.Println("  *  sequential figure below will read ~1.0x regardless of pool      *")
		fmt.Println("  *  size. Re-run on a multi-core machine to validate scaling; the   *")
		fmt.Println("  *  per-op speedups (paillier_fixed_base, commutative_engine) are   *")
		fmt.Println("  *  core-count independent and remain meaningful.                   *")
		fmt.Println("  ********************************************************************")
		fmt.Println()
	}

	workerCounts := []int{1, 2}
	if cores > 2 {
		workerCounts = append(workerCounts, cores)
	}
	report := parallelReport{Cores: cores, GOMAXPROCS: maxprocs,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Rows: h.spec.Rows1, Domain: h.spec.Domain1}

	rows := [][]string{{"protocol", "workers", "wall", "speedup vs workers=1"}}
	for _, proto := range secureProtocols {
		var seq time.Duration
		for _, workers := range workerCounts {
			params := h.params()
			params.Workers = workers
			// Median of three runs; end-to-end walls are noisy at this scale.
			wall, err := h.medianWall(proto, params, 3)
			if err != nil {
				return err
			}
			if workers == 1 {
				seq = wall
			}
			speedup := float64(seq) / float64(wall)
			report.Protocols = append(report.Protocols, parallelProtocolRun{
				Protocol: proto.String(), Workers: workers,
				WallNs: wall.Nanoseconds(), Speedup: speedup,
			})
			rows = append(rows, []string{proto.String(), fmt.Sprint(workers),
				wall.Round(time.Millisecond).String(), fmt.Sprintf("%.2fx", speedup)})
		}
	}
	printAligned(rows)

	pail, err := measurePaillierFixedBase(h.paillierBits)
	if err != nil {
		return err
	}
	report.Paillier = pail
	fmt.Printf("paillier %d-bit encryption: textbook %s/op, fixed-base %s/op (%.1fx; table build %s)\n\n",
		pail.Bits,
		time.Duration(pail.TextbookNsPerOp).Round(time.Microsecond),
		time.Duration(pail.FixedBaseNsOp).Round(time.Microsecond),
		pail.Speedup,
		time.Duration(pail.PrecomputeNs).Round(time.Millisecond))

	// Single-thread cross-encryption at the paper's workload size: the
	// per-op engine speedup the worker pool then multiplies.
	values := h.spec.Domain1 + h.spec.Domain2
	if values > 256 {
		values = 256
	}
	eng, err := measureCommutativeEngine(h.groupBits, values)
	if err != nil {
		return err
	}
	report.Engine = eng
	fmt.Printf("commutative %d-bit cross-encryption (single thread, %d values): full %d-bit exponents %s/op, short %d-bit exponents %s/op (%.1fx)\n",
		eng.GroupBits, eng.Values,
		eng.FullExpBits, time.Duration(eng.FullNsPerOp).Round(time.Microsecond),
		eng.ShortExpBits, time.Duration(eng.ShortNsPerOp).Round(time.Microsecond),
		eng.Speedup)
	fmt.Printf("commutative QR membership test: euler %s/op, jacobi %s/op (%.1fx)\n",
		time.Duration(eng.QRTestEulerNs).Round(time.Microsecond),
		time.Duration(eng.QRTestJacobiNs).Round(time.Microsecond),
		eng.QRTestSpeedup)
	fmt.Printf("constant-time ladder (same short exponents, fixed-window): %s/op (%.2fx the variable-time engine)\n\n",
		time.Duration(eng.CTLadderNsPerOp).Round(time.Microsecond),
		eng.CTLadderOverhead)

	return writeReport(jsonPath, report)
}

// medianWall runs the query n times and returns the median wall time.
func (h *harness) medianWall(proto mediation.Protocol, params mediation.Params, n int) (time.Duration, error) {
	walls := make([]time.Duration, n)
	for i := range walls {
		start := time.Now()
		if _, err := h.run(proto, params); err != nil {
			return 0, err
		}
		walls[i] = time.Since(start)
	}
	for i := range walls { // insertion sort; n is tiny
		for j := i; j > 0 && walls[j] < walls[j-1]; j-- {
			walls[j], walls[j-1] = walls[j-1], walls[j]
		}
	}
	return walls[n/2], nil
}

// measurePaillierFixedBase times textbook vs fixed-base encryption on a
// fresh key of the given size.
func measurePaillierFixedBase(bits int) (parallelPaillierRun, error) {
	key, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return parallelPaillierRun{}, err
	}
	const ops = 24
	m := big.NewInt(424242)

	textbook := &paillier.PublicKey{N: key.N, NSquared: key.NSquared}
	start := time.Now()
	for i := 0; i < ops; i++ {
		// Fresh key per op so the warmup counter never builds the table.
		pk := &paillier.PublicKey{N: key.N, NSquared: key.NSquared}
		if _, err := pk.Encrypt(rand.Reader, m); err != nil {
			return parallelPaillierRun{}, err
		}
	}
	textbookNs := time.Since(start).Nanoseconds() / ops

	start = time.Now()
	if err := textbook.Precompute(rand.Reader); err != nil {
		return parallelPaillierRun{}, err
	}
	precomputeNs := time.Since(start).Nanoseconds()
	start = time.Now()
	for i := 0; i < ops; i++ {
		if _, err := textbook.Encrypt(rand.Reader, m); err != nil {
			return parallelPaillierRun{}, err
		}
	}
	fixedNs := time.Since(start).Nanoseconds() / ops

	return parallelPaillierRun{
		Bits:            bits,
		TextbookNsPerOp: textbookNs,
		FixedBaseNsOp:   fixedNs,
		PrecomputeNs:    precomputeNs,
		Speedup:         float64(textbookNs) / float64(fixedNs),
	}, nil
}
