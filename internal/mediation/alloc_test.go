//go:build !race

package mediation

import (
	"runtime"
	"testing"
)

// dasTPCHBytesBudget bounds what one das_tpch-shaped query allocates in
// this process (client, mediator and both sources over in-memory links):
// 822,000 bytes measured (go1.24, linux/amd64), × 1.25.
const dasTPCHBytesBudget = 822_000 * 5 / 4

// A DAS query allocates each byte of its data path about once: frames
// of their exact size, R_C counted, runs sealed, opened and joined
// without regrowing. The race detector instruments allocations, so the
// test builds without it.
func TestDASQueryAllocBudget(t *testing.T) {
	r1, r2 := benchRelations(t, 150, 1, 100, 15, 1, 1)
	n := networkOver(t, nil, r1, r2)
	query := func() {
		t.Helper()
		if _, err := n.Query("SELECT * FROM R1 JOIN R2 ON R1.id = R2.id", ProtocolDAS, Params{}); err != nil {
			t.Fatal(err)
		}
	}
	query() // warm: one-time fixtures and lazily built tables
	const queries = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		query()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / queries
	t.Logf("%d bytes and %d allocations per query", perQuery, (after.Mallocs-before.Mallocs)/queries)
	if perQuery > dasTPCHBytesBudget {
		t.Errorf("a DAS query allocates %d bytes, budget %d", perQuery, dasTPCHBytesBudget)
	}
}
