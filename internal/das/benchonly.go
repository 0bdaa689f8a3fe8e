package das

// Bench-only: the frozen benchmark measures R_C as a list of row pairs
// (das.superset_ratio, das.server_query_ns_per_pair). No protocol path
// lists R_C: the mediator counts it with SelectRuns. A test beside
// TestNoOrphanInternalPackages fails when code outside bench/ and this
// package calls ExecuteServerQuery or reads ServerResult.Pairs.

// ServerResultPair is one row of R_C: the ordinals, among the rows of
// the runs in ServerResult.E1 and ServerResult.E2 taken in order, of two
// rows whose runs' index values satisfied CondS.
type ServerResultPair struct {
	I, J uint32
}

// ExecuteServerQuery is SelectRuns that also lists R_C in Pairs, in
// evaluation order: R1 run order, then q.PerAttr[0] order, then R2 run
// order, then row order within the runs.
func ExecuteServerQuery(r1, r2 *EncryptedRelation, q ServerQuery) (*ServerResult, error) {
	var matched [][2]int
	m, err := matchRuns(r1, r2, q, func(i, j int) { matched = append(matched, [2]int{i, j}) })
	if err != nil {
		return nil, err
	}
	res := m.result(r1, r2)
	first1, first2 := firstRows(r1.Runs, m.keep1), firstRows(r2.Runs, m.keep2)
	res.Pairs = make([]ServerResultPair, 0, res.Size)
	for _, p := range matched {
		for i := first1[p[0]]; i < first1[p[0]]+r1.Runs[p[0]].Rows; i++ {
			for j := first2[p[1]]; j < first2[p[1]]+r2.Runs[p[1]].Rows; j++ {
				res.Pairs = append(res.Pairs, ServerResultPair{I: uint32(i), J: uint32(j)})
			}
		}
	}
	return res, nil
}

// firstRows returns, for each kept run, the ordinal of its first row
// among the kept runs' rows in run order.
func firstRows(runs []Run, keep []bool) []int {
	first := make([]int, len(runs))
	n := 0
	for i, run := range runs {
		if keep[i] {
			first[i] = n
			n += run.Rows
		}
	}
	return first
}
