package mediation

import (
	"fmt"
	"sync"
	"testing"

	"github.com/secmediation/secmediation/internal/leakage"
	rel "github.com/secmediation/secmediation/internal/relation"
)

// workerParams is fastParams with the crypto worker pool sized explicitly.
func workerParams(workers int) Params {
	p := fastParams()
	p.Workers = workers
	return p
}

// TestProtocolsConcurrentSessionsWithWorkers drives every ciphertext
// protocol with a multi-goroutine worker pool while several sessions are
// in flight at once — the worst case the parallel execution layer must
// survive (pool goroutines inside each party × concurrent sessions ×
// shared client and ledger). Run under -race this is the layer's central
// safety check.
func TestProtocolsConcurrentSessionsWithWorkers(t *testing.T) {
	want := expectedJoin(t)
	protos := []Protocol{ProtocolDAS, ProtocolCommutative, ProtocolPM}
	const sessionsPerProto = 2

	// Networks are assembled sequentially (newTestNetwork reassigns the
	// shared fixture client's ledger); only the sessions themselves race.
	ledger := leakage.NewLedger()
	type job struct {
		proto Protocol
		net   *Network
	}
	var jobs []job
	for _, proto := range protos {
		for s := 0; s < sessionsPerProto; s++ {
			jobs = append(jobs, job{proto: proto, net: newTestNetwork(t, ledger)})
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := j.net.Query(fixtureSQL, j.proto, workerParams(4))
			if err != nil {
				errs <- fmt.Errorf("%s: %w", j.proto, err)
				return
			}
			if !got.EqualMultiset(want) {
				errs <- fmt.Errorf("%s: result mismatch under concurrency", j.proto)
			}
			if srcErrs := j.net.SourceErrors(); len(srcErrs) != 0 {
				errs <- fmt.Errorf("%s: source errors: %v", j.proto, srcErrs)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWorkerCountDoesNotChangeResults asserts the determinism contract of
// the execution layer: Workers: 1 (the listings' sequential execution) and
// Workers: 8 produce identical global results for every protocol. Results
// are compared as multisets because the protocols shuffle their message
// sets — positions are randomized even sequentially — while the set of
// result tuples is fixed by the query alone.
func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	for _, proto := range []Protocol{ProtocolDAS, ProtocolCommutative, ProtocolPM} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			var results []*rel.Relation
			for _, workers := range []int{1, 8} {
				n := newTestNetwork(t, nil)
				got, err := n.Query(fixtureSQL, proto, workerParams(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if errs := n.SourceErrors(); len(errs) != 0 {
					t.Fatalf("workers=%d: source errors: %v", workers, errs)
				}
				results = append(results, got)
			}
			if !results[0].EqualMultiset(results[1]) {
				t.Errorf("Workers:1 and Workers:8 disagree:\n%v\nvs\n%v", results[0], results[1])
			}
		})
	}
}

// TestCommutativeIntersectionWorkerIndependence pins the standalone
// intersection operation to the same contract.
func TestCommutativeIntersectionWorkerIndependence(t *testing.T) {
	recv := []rel.Value{rel.Int(10), rel.Int(20), rel.Int(30), rel.String_("x")}
	send := []rel.Value{rel.Int(20), rel.Int(30), rel.Int(40), rel.String_("x")}
	var lens []int
	for _, workers := range []int{1, 4} {
		got, err := CommutativeIntersection("sess-w", recv, send, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		lens = append(lens, len(got))
	}
	if lens[0] != 3 || lens[1] != 3 {
		t.Errorf("intersection sizes %v, want {3, 3}", lens)
	}
}
