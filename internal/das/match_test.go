package das

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"testing"

	rel "github.com/secmediation/secmediation/internal/relation"
)

// sealedSide seals r for a DAS query on cols as a source does: an empty
// partial result has no active domain and so an index table without
// entries.
func sealedSide(t *testing.T, r *rel.Relation, cols []string, k int) (*EncryptedRelation, []*IndexTable) {
	t.Helper()
	its := make([]*IndexTable, len(cols))
	for i, c := range cols {
		dom, err := r.ActiveDomain(c)
		if err != nil {
			t.Fatal(err)
		}
		var parts []Partition
		if len(dom) > 0 {
			if parts, err = EquiDepthPartitions(dom, k); err != nil {
				t.Fatal(err)
			}
		}
		if its[i], err = BuildIndexTable(c, parts); err != nil {
			t.Fatal(err)
		}
	}
	er, _, err := encryptFor(clientKey(t), r, cols, its)
	if err != nil {
		t.Fatal(err)
	}
	return er, its
}

// randomFilter admits a random subset of one indexed attribute's index
// values.
func randomFilter(rng *mrand.Rand, its []*IndexTable) []IndexFilter {
	a := rng.Intn(len(its))
	f := IndexFilter{Attr: a}
	for _, e := range its[a].Entries {
		if rng.Intn(3) > 0 {
			f.Allowed = append(f.Allowed, e.Index)
		}
	}
	return []IndexFilter{f}
}

// The mediator's counting path (SelectRuns) and the benchmark's listing
// path (ExecuteServerQuery) are one matching core: on seeded random
// shapes — one or two join attributes, filters pushed down on either
// side, empty sides — they ship the same runs and the same |R_C|, and
// the list holds exactly |R_C| pairs.
func TestSelectRunsMatchesExecuteServerQuery(t *testing.T) {
	rng := mrand.New(mrand.NewSource(48))
	for trial := 0; trial < 60; trial++ {
		cols := [][]string{{"id"}, {"id", "dept"}}[rng.Intn(2)]
		k := 1 + rng.Intn(12)
		// A side is empty one time in five.
		size := func() int {
			if rng.Intn(5) == 0 {
				return 0
			}
			return 1 + rng.Intn(40)
		}
		er1, its1 := sealedSide(t, skewedRelation(rng, "R1", size()), cols, k)
		er2, its2 := sealedSide(t, skewedRelation(rng, "R2", size()), cols, k)
		sq, err := BuildServerQuery(its1, its2)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 && len(er1.Runs) > 0 {
			sq.Filters1 = randomFilter(rng, its1)
		}
		if rng.Intn(2) == 0 && len(er2.Runs) > 0 {
			sq.Filters2 = randomFilter(rng, its2)
		}
		name := fmt.Sprintf("trial %d: %d+%d runs, %d attrs, k=%d, %d+%d filters",
			trial, len(er1.Runs), len(er2.Runs), len(cols), k, len(sq.Filters1), len(sq.Filters2))
		counted, err := SelectRuns(er1, er2, sq)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		listed, err := ExecuteServerQuery(er1, er2, sq)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameRuns(counted.E1, listed.E1) || !sameRuns(counted.E2, listed.E2) || counted.Size != listed.Size {
			t.Errorf("%s: counted %d+%d runs, |R_C| %d; listed %d+%d runs, |R_C| %d", name,
				len(counted.E1), len(counted.E2), counted.Size, len(listed.E1), len(listed.E2), listed.Size)
		}
		if counted.Pairs != nil || len(listed.Pairs) != listed.Size {
			t.Errorf("%s: the count lists %d pairs; the list holds %d for |R_C| %d", name, len(counted.Pairs), len(listed.Pairs), listed.Size)
		}
	}
}

func sameRuns(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
