package insecurerand

import "testing"

// TestDeterministicSequence pins the contract the workload generator
// relies on: equal seeds give identical streams, and the stream is
// bit-identical to math/rand's (so published workloads stay stable).
func TestDeterministicSequence(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Intn(1000), b.Intn(1000); x != y {
			t.Fatalf("draw %d: %d != %d with equal seeds", i, x, y)
		}
	}
	if New(1).Intn(1<<30) == New(2).Intn(1<<30) {
		// Equality here is possible but astronomically unlikely; treat
		// as a regression in seed plumbing.
		t.Error("different seeds produced identical first draws")
	}
}

func TestZipfDrawsWithinRange(t *testing.T) {
	s := New(7)
	z := s.NewZipf(1.5, 1, 99)
	for i := 0; i < 1000; i++ {
		if v := z.Uint64(); v > 99 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
	}
}
