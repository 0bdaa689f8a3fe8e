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

// randomSet draws a schema of one to six columns of random kinds and up
// to twenty rows of it.
func randomSet(r *rand.Rand) (Schema, []Tuple) {
	kinds := []Kind{KindInt, KindString, KindFloat, KindBool}
	cols := make([]Column, 1+r.Intn(6))
	for i := range cols {
		cols[i] = Column{Name: string(rune('a' + i)), Kind: kinds[r.Intn(len(kinds))]}
	}
	s := MustSchema("R", cols...)
	rows := make([]Tuple, r.Intn(21))
	for i := range rows {
		rows[i] = make(Tuple, len(cols))
		for j, c := range cols {
			rows[i][j] = randomOfKind(r, c.Kind)
		}
	}
	return s, rows
}

func vlen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// A tuple set's length is vlen(n) + Σ_rows (8·#INT/FLOAT + #BOOL +
// Σ_TEXT (vlen(len) + len)): it depends on the row count and the TEXT
// lengths only, so no INT, FLOAT or BOOL value moves it.
func TestTupleSetLength(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, rows := randomSet(r)
		want := vlen(len(rows))
		for _, row := range rows {
			for _, v := range row {
				switch v.Kind() {
				case KindInt, KindFloat:
					want += 8
				case KindBool:
					want++
				case KindString:
					want += vlen(len(v.AsString())) + len(v.AsString())
				}
			}
		}
		enc := EncodeTupleSet(rows)
		if len(enc) != want {
			t.Logf("seed %d: %d bytes, closed form %d", seed, len(enc), want)
			return false
		}
		moved := make([]Tuple, len(rows))
		for i, row := range rows {
			moved[i] = row.Clone()
			for j, c := range s.Columns {
				if c.Kind != KindString {
					moved[i][j] = randomOfKind(r, c.Kind)
				}
			}
		}
		if n := len(EncodeTupleSet(moved)); n != want {
			t.Logf("seed %d: new fixed-width values moved the length %d → %d", seed, want, n)
			return false
		}
		got, err := DecodeTupleSet(s, enc)
		if err != nil || len(got) != len(rows) {
			t.Logf("seed %d: decode: %d rows, %v", seed, len(got), err)
			return false
		}
		for i := range rows {
			if !got[i].Equal(rows[i]) {
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
	f := func(id int64, name string, bits uint64, ok bool) bool {
		tu := Tuple{Int(id), String_(name), Float(math.Float64frombits(bits)), Bool(ok)}
		enc := EncodeTupleSet([]Tuple{tu, tu})
		got, err := DecodeTupleSet(allKinds, enc)
		// Compare by canonical encoding: a NaN must come back bit-exact.
		return err == nil && len(got) == 2 &&
			bytes.Equal(got[0].Encode(nil), tu.Encode(nil)) && bytes.Equal(got[1].Encode(nil), tu.Encode(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Decoded rows share one backing array, but appending to one must
	// not overwrite the next.
	rows, err := DecodeTupleSet(allKinds, EncodeTupleSet([]Tuple{
		{Int(1), String_("a"), Float(1), Bool(true)},
		{Int(2), String_("b"), Float(2), Bool(false)},
	}))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(rows[0], Int(9))
	if rows[1][0].AsInt() != 2 {
		t.Errorf("appending to row 0 changed row 1: %v", rows[1])
	}
}

func TestDecodeTupleSetErrors(t *testing.T) {
	good := EncodeTupleSet([]Tuple{{Int(1), String_("x"), Float(2), Bool(true)}})
	with := func(i int, b ...byte) []byte {
		return append(append(append([]byte(nil), good[:i]...), b...), good[i+1:]...)
	}
	intOnly := MustSchema("R", Column{Name: "id", Kind: KindInt})
	cases := []struct {
		name   string
		schema Schema
		blob   []byte
	}{
		{"empty", allKinds, nil},
		{"truncated", allKinds, good[:len(good)-1]},
		{"trailing byte", allKinds, append(append([]byte(nil), good...), 0)},
		{"padded count", allKinds, append([]byte{0x81, 0x00}, good[1:]...)},
		// The TEXT length sits after the count and the INT.
		{"padded TEXT length", allKinds, with(9, 0x81, 0x00)},
		{"TEXT past the end", allKinds, with(9, 0x7F)},
		{"BOOL byte 2", allKinds, with(len(good)-1, 2)},
		{"count past the bytes", intOnly, []byte{2, 0, 0, 0, 0, 0, 0, 0, 1}},
		{"invalid kind", Schema{Relation: "R", Columns: []Column{{Name: "x"}}}, []byte{0}},
		{"no columns", Schema{Relation: "R"}, []byte{0}},
	}
	if _, err := DecodeTupleSet(allKinds, good); err != nil {
		t.Fatalf("the unaltered set does not decode: %v", err)
	}
	for _, c := range cases {
		if rows, err := DecodeTupleSet(c.schema, c.blob); err == nil {
			t.Errorf("%s: decoded %v", c.name, rows)
		}
	}
}

// A hostile count must fail against the bytes left before the decoder
// allocates anything sized by it.
func TestDecodeTupleSetHostileCount(t *testing.T) {
	blob := binary.AppendUvarint(nil, 1<<40)
	blob = append(blob, make([]byte, 10-len(blob))...)
	text := MustSchema("R", Column{Name: "t", Kind: KindString})
	for _, s := range []Schema{allKinds, text} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeTupleSet(s, blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%v: a count of 2^40 in %d bytes decoded", s, len(blob))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
			t.Errorf("%v: rejecting a count of 2^40 allocated %d bytes", s, got)
		}
	}
}
