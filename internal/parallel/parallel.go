// Package parallel provides the bounded data-parallel execution layer
// under the protocol hot loops: every delivery-phase protocol spends its
// runtime in per-value public-key operations (commutative scalar
// multiplications, Paillier encryptions, hybrid seals), which are
// independent across values and therefore embarrassingly parallel.
//
// The helpers chunk an index range [0, n) over a fixed number of worker
// goroutines, propagate the first error (cancelling the remaining
// chunks), and — crucially for protocol transcripts — preserve output
// order: Map writes result i to slot i, so a parallel run produces the
// byte-identical message sequence a sequential run would, regardless of
// worker count or scheduling.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/secmediation/secmediation/internal/telemetry"
)

// Process-wide pool telemetry: task and batch counts plus the
// distribution of how long a chunk waited from batch start to pickup —
// the pool's queueing delay. One histogram observation per chunk (not
// per item) keeps the overhead off the per-value hot path.
var (
	opTasks   = telemetry.CryptoOp("parallel.tasks")
	opBatches = telemetry.CryptoOp("parallel.batches")
	queueWait = telemetry.GlobalHistogram("parallel_queue_wait_ns")
)

// chunksPerWorker over-partitions the index range so workers that draw
// cheap items steal remaining chunks from workers that drew expensive
// ones (tuple-set sizes vary per join value).
const chunksPerWorker = 4

// Resolve maps a Params-style worker knob to an effective worker count:
// 0 selects runtime.NumCPU(), anything below 1 degrades to sequential
// execution, and positive values are used as-is.
func Resolve(workers int) int {
	if workers == 0 {
		return runtime.NumCPU()
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// ForEach invokes fn(i) for every i in [0, n), distributing indices over
// at most Resolve(workers) goroutines. fn must be safe for concurrent
// invocation on distinct indices when workers != 1. The first error stops
// the distribution of further chunks (in-flight items finish) and is
// returned; with workers resolving to 1 the loop runs inline on the
// calling goroutine, preserving today's sequential behavior exactly.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	opTasks.Add(int64(n))
	opBatches.Add(1)
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	chunk := n / (workers * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	batchStart := time.Now()
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				queueWait.Observe(time.Since(batchStart).Nanoseconds())
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if err := fn(i); err != nil {
						fail(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Map computes out[i] = fn(i) for every i in [0, n) with ForEach's
// scheduling and error semantics. The output slice is index-addressed, so
// element order is deterministic and independent of the worker count.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
