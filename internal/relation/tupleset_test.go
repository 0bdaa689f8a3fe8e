package relation

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// allKinds is a schema with one column of each kind.
var allKinds = MustSchema("R",
	Column{Name: "id", Kind: KindInt},
	Column{Name: "name", Kind: KindString},
	Column{Name: "score", Kind: KindFloat},
	Column{Name: "ok", Kind: KindBool})

// randomOfKind draws a value of kind k; TEXT lengths reach past 127, so
// their length varints take one and two bytes.
func randomOfKind(r *rand.Rand, k Kind) Value {
	switch k {
	case KindInt:
		return Int(r.Int63() - r.Int63())
	case KindFloat:
		return Float(r.NormFloat64() * 1e6)
	case KindBool:
		return Bool(r.Intn(2) == 0)
	default:
		return String_(strings.Repeat("x", r.Intn(300)))
	}
}

// randomSet draws a schema of one to six columns of random kinds, a
// random proper subset of its positions to fix, and up to twenty rows of
// it that agree on the fixed columns.
func randomSet(r *rand.Rand) (Schema, []int, []Tuple) {
	kinds := []Kind{KindInt, KindString, KindFloat, KindBool}
	cols := make([]Column, 1+r.Intn(6))
	for i := range cols {
		cols[i] = Column{Name: string(rune('a' + i)), Kind: kinds[r.Intn(len(kinds))]}
	}
	s := MustSchema("R", cols...)
	var fixed []int
	for j := range cols {
		if len(fixed) < len(cols)-1 && r.Intn(2) == 0 {
			fixed = append(fixed, j)
		}
	}
	rows := make([]Tuple, r.Intn(21))
	for i := range rows {
		rows[i] = make(Tuple, len(cols))
		for j, c := range cols {
			rows[i][j] = randomOfKind(r, c.Kind)
		}
		for _, j := range fixed {
			rows[i][j] = rows[0][j]
		}
	}
	return s, fixed, rows
}

func vlen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// wireWidth is w in the closed form: 8 for INT/FLOAT, 1 for BOOL,
// vlen(len) + len for TEXT.
func wireWidth(v Value) int {
	switch v.Kind() {
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	default:
		return vlen(len(v.AsString())) + len(v.AsString())
	}
}

func mustEncode(t testing.TB, rows []Tuple, fixed []int) []byte {
	t.Helper()
	b, err := EncodeTupleSet(rows, fixed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A tuple set's length is vlen(n) + [n ≥ 1]·Σ_fixed w + n·Σ_other w: it
// depends on the row count and the TEXT lengths only, so no INT, FLOAT
// or BOOL value moves it, and the fixed columns count once.
func TestTupleSetLength(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, fixed, rows := randomSet(r)
		isFixed := map[int]bool{}
		for _, j := range fixed {
			isFixed[j] = true
		}
		want := vlen(len(rows))
		for i, row := range rows {
			for j, v := range row {
				if !isFixed[j] || i == 0 {
					want += wireWidth(v)
				}
			}
		}
		enc, err := EncodeTupleSet(rows, fixed)
		if err != nil || len(enc) != want {
			t.Logf("seed %d, fixed %v: %d bytes (%v), closed form %d", seed, fixed, len(enc), err, want)
			return false
		}
		moved := make([]Tuple, len(rows))
		for i, row := range rows {
			moved[i] = row.Clone()
			for j, c := range s.Columns {
				switch {
				case c.Kind == KindString:
				case isFixed[j] && i > 0:
					moved[i][j] = moved[0][j]
				default:
					moved[i][j] = randomOfKind(r, c.Kind)
				}
			}
		}
		if n, err := EncodeTupleSet(moved, fixed); err != nil || len(n) != want {
			t.Logf("seed %d: new fixed-width values moved the length %d → %d (%v)", seed, want, len(n), err)
			return false
		}
		got, err := DecodeTupleSet(s, fixed, enc)
		if err != nil || len(got) != len(rows) {
			t.Logf("seed %d: decode: %d rows, %v", seed, len(got), err)
			return false
		}
		for i := range rows {
			if !bytes.Equal(got[i].Encode(nil), rows[i].Encode(nil)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTupleSetRoundtrip(t *testing.T) {
	f := func(id int64, name string, bits uint64, ok bool, mask uint8) bool {
		tu := Tuple{Int(id), String_(name), Float(math.Float64frombits(bits)), Bool(ok)}
		// Any proper subset of the four columns, as fixed positions.
		var fixed []int
		for j := 0; j < 4; j++ {
			if mask&(1<<j) != 0 {
				fixed = append(fixed, j)
			}
		}
		if len(fixed) == 4 {
			fixed = fixed[1:]
		}
		enc, err := EncodeTupleSet([]Tuple{tu, tu}, fixed)
		if err != nil {
			return false
		}
		got, err := DecodeTupleSet(allKinds, fixed, enc)
		// Compare by canonical encoding: a NaN must come back bit-exact.
		return err == nil && len(got) == 2 &&
			bytes.Equal(got[0].Encode(nil), tu.Encode(nil)) && bytes.Equal(got[1].Encode(nil), tu.Encode(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Decoded rows share one backing array, but appending to one must
	// not overwrite the next.
	for _, fixed := range [][]int{nil, {0}} {
		rows, err := DecodeTupleSet(allKinds, fixed, mustEncode(t, []Tuple{
			{Int(1), String_("a"), Float(1), Bool(true)},
			{Int(1), String_("b"), Float(2), Bool(false)},
		}, fixed))
		if err != nil {
			t.Fatal(err)
		}
		_ = append(rows[0], Int(9))
		if rows[1][1].AsString() != "b" || rows[1][0].AsInt() != 1 {
			t.Errorf("fixed %v: appending to row 0 changed row 1: %v", fixed, rows[1])
		}
	}
}

// The encoder refuses fixed positions it cannot honour: out of order,
// repeated, negative, past the row, covering every column, or naming a
// column on which the rows differ — even only in a FLOAT's bits.
func TestEncodeTupleSetFixedErrors(t *testing.T) {
	row := Tuple{Int(1), String_("x"), Float(2), Bool(true)}
	negZero := Tuple{Int(1), String_("x"), Float(math.Copysign(0, -1)), Bool(true)}
	posZero := Tuple{Int(1), String_("x"), Float(0), Bool(true)}
	nan := Tuple{Int(1), String_("x"), Float(math.NaN()), Bool(true)}
	otherNaN := Tuple{Int(1), String_("x"), Float(math.Float64frombits(0x7FF8_0000_0000_0002)), Bool(true)}
	cases := []struct {
		name  string
		rows  []Tuple
		fixed []int
	}{
		{"descending", []Tuple{row}, []int{2, 0}},
		{"repeated", []Tuple{row}, []int{0, 0}},
		{"negative", []Tuple{row}, []int{-1}},
		{"past the row", []Tuple{row}, []int{4}},
		{"every column", []Tuple{row}, []int{0, 1, 2, 3}},
		{"values differ", []Tuple{row, {Int(2), String_("x"), Float(2), Bool(true)}}, []int{0}},
		{"−0 then +0", []Tuple{negZero, posZero}, []int{2}},
		{"two NaN payloads", []Tuple{nan, otherNaN}, []int{2}},
		{"short row", []Tuple{row, {Int(1)}}, []int{0, 1}},
		{"descending, no rows", nil, []int{1, 0}},
	}
	for _, c := range cases {
		if b, err := EncodeTupleSet(c.rows, c.fixed); err == nil {
			t.Errorf("%s: encoded % x", c.name, b)
		}
	}
	// The same NaN on every row is one fixed value.
	if _, err := EncodeTupleSet([]Tuple{nan, nan}, []int{2}); err != nil {
		t.Errorf("a repeated NaN key: %v", err)
	}
}

func TestDecodeTupleSetErrors(t *testing.T) {
	good := mustEncode(t, []Tuple{{Int(1), String_("x"), Float(2), Bool(true)}}, nil)
	with := func(i int, b ...byte) []byte {
		return append(append(append([]byte(nil), good[:i]...), b...), good[i+1:]...)
	}
	intOnly := MustSchema("R", Column{Name: "id", Kind: KindInt})
	cases := []struct {
		name   string
		schema Schema
		fixed  []int
		blob   []byte
	}{
		{"empty", allKinds, nil, nil},
		{"truncated", allKinds, nil, good[:len(good)-1]},
		{"trailing byte", allKinds, nil, append(append([]byte(nil), good...), 0)},
		{"padded count", allKinds, nil, append([]byte{0x81, 0x00}, good[1:]...)},
		// The TEXT length sits after the count and the INT.
		{"padded TEXT length", allKinds, nil, with(9, 0x81, 0x00)},
		{"TEXT past the end", allKinds, nil, with(9, 0x7F)},
		{"BOOL byte 2", allKinds, nil, with(len(good)-1, 2)},
		{"count past the bytes", intOnly, nil, []byte{2, 0, 0, 0, 0, 0, 0, 0, 1}},
		{"invalid kind", Schema{Relation: "R", Columns: []Column{{Name: "x"}}}, nil, []byte{0}},
		{"no columns", Schema{Relation: "R"}, nil, []byte{0}},
		// The same bytes are a one-row set with the INT fixed; these
		// positions are not.
		{"fixed descending", allKinds, []int{2, 0}, good},
		{"fixed repeated", allKinds, []int{0, 0}, good},
		{"fixed past the schema", allKinds, []int{4}, good},
		{"fixed covers every column", allKinds, []int{0, 1, 2, 3}, good},
		{"fixed covers the only column", intOnly, []int{0}, []byte{1, 0, 0, 0, 0, 0, 0, 0, 1}},
		{"fixed values truncated", allKinds, []int{0, 1}, good[:5]},
		{"trailing byte, no rows", allKinds, []int{0}, []byte{0, 0}},
	}
	for _, fixed := range [][]int{nil, {0}} {
		if _, err := DecodeTupleSet(allKinds, fixed, good); err != nil {
			t.Fatalf("the unaltered set does not decode with fixed %v: %v", fixed, err)
		}
	}
	for _, c := range cases {
		if rows, err := DecodeTupleSet(c.schema, c.fixed, c.blob); err == nil {
			t.Errorf("%s: decoded %v", c.name, rows)
		}
	}
}

// A hostile count must fail against the bytes left before the decoder
// allocates anything sized by it, with fixed columns too: the bound uses
// the width of the unfixed columns only.
func TestDecodeTupleSetHostileCount(t *testing.T) {
	blob := binary.AppendUvarint(nil, 1<<40)
	blob = append(blob, make([]byte, 10-len(blob))...)
	text := MustSchema("R", Column{Name: "t", Kind: KindString})
	cases := []struct {
		s     Schema
		fixed []int
	}{
		{allKinds, nil},
		{text, nil},
		{allKinds, []int{0}},
		{allKinds, []int{0, 1, 2}},
		{allKinds, []int{1, 2, 3}},
	}
	// TotalAlloc counts every goroutine's allocations, so one window can
	// catch another goroutine's; the least of several windows cannot,
	// unless each one does.
	const windows = 5
	for _, c := range cases {
		least := uint64(math.MaxUint64)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeTupleSet(c.s, c.fixed, blob)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%v fixed %v: a count of 2^40 in %d bytes decoded", c.s, c.fixed, len(blob))
				break
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4<<10 {
			t.Errorf("%v fixed %v: rejecting a count of 2^40 allocated %d bytes", c.s, c.fixed, least)
		}
	}
}
