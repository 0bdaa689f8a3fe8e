package mediation

import (
	"crypto/rsa"
	"math/rand"
	"testing"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/workload"
)

// TestDifferentialRandomWorkloads is the end-to-end differential property:
// for randomized workloads (varying cardinalities, domain sizes, overlap
// and skew), every secure protocol must produce exactly the plaintext
// truth. This is the strongest single correctness check in the suite.
func TestDifferentialRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	f := getFixture(t)
	rng := rand.New(rand.NewSource(20070415))
	for trial := 0; trial < 6; trial++ {
		spec := workload.JoinSpec{
			Rows1:   1 + rng.Intn(40),
			Rows2:   1 + rng.Intn(40),
			Domain1: 1 + rng.Intn(12),
			Domain2: 1 + rng.Intn(12),
			Overlap: float64(rng.Intn(101)) / 100,
			Skew:    float64(rng.Intn(2)), // 0 or 1
			Seed:    rng.Int63(),
		}
		r1, r2, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		want, err := algebra.EquiJoin(r1, r2, []string{"id"}, []string{"id"})
		if err != nil {
			t.Fatal(err)
		}
		s1 := &Source{Name: "S1", Catalog: algebra.MapCatalog{"R1": r1},
			Policies: map[string]*credential.Policy{"R1": policyFor("R1")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
		s2 := &Source{Name: "S2", Catalog: algebra.MapCatalog{"R2": r2},
			Policies: map[string]*credential.Policy{"R2": policyFor("R2")}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
		n, err := NewNetwork(f.client, &Mediator{}, s1, s2)
		if err != nil {
			t.Fatal(err)
		}
		for _, proto := range []Protocol{ProtocolDAS, ProtocolCommutative, ProtocolPM} {
			params := fastParams()
			params.Partitions = 1 + rng.Intn(6)
			if proto == ProtocolPM {
				params.Buckets = 1 + rng.Intn(3)
			}
			if proto == ProtocolCommutative && rng.Intn(2) == 1 {
				params.IDMode = true
			}
			got, err := n.Query(fixtureSQL, proto, params)
			if err != nil {
				t.Fatalf("trial %d %v (%+v): %v", trial, proto, spec, err)
			}
			if !got.EqualMultiset(want) {
				t.Fatalf("trial %d %v: %d tuples, want %d (spec %+v)",
					trial, proto, got.Len(), want.Len(), spec)
			}
		}
	}
}
