package mediation

import (
	"fmt"
	"sync"
	"testing"

	"github.com/secmediation/secmediation/internal/leakage"
)

// TestWorkerPoolUnderConcurrentSessions drives every ciphertext protocol,
// each party fanning its hot loops over the default worker pool, while
// several sessions are in flight at once — the worst case the parallel
// execution layer must survive (pool goroutines inside each party ×
// concurrent sessions × shared client and ledger). Run under -race this is the layer's central
// safety check.
func TestWorkerPoolUnderConcurrentSessions(t *testing.T) {
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
			got, err := j.net.Query(fixtureSQL, j.proto, fastParams())
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
