package relation

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A tuple set is the wire form of a list of tuples of one schema — DAS
// runs, Tup(a) in the commutative and PM protocols, mobile-code rows and
// the plaintext baseline's relations. It is a uvarint row count n, then,
// when n ≥ 1, the values of the fixed columns once, in schema order, then
// each row's other values in column order. No kind byte and no row length
// is written: INT and FLOAT are 8 big-endian bytes, BOOL one byte 0 or 1,
// TEXT a minimal uvarint length and its bytes.
//
// A fixed column holds one value on every row of the set: Tup(a) is keyed
// on a, so its join columns are written once per set instead of once per
// row. A set of n rows is therefore
//
//	vlen(n) + [n ≥ 1]·Σ_fixed w + n·Σ_other w
//
// bytes long, where w is 8 for an INT or FLOAT, 1 for a BOOL and
// vlen(len) + len for a TEXT: a value other than a TEXT never moves it.
//
// The layout holds no kinds, no names and no positions, so the reader
// supplies the schema and the fixed positions. A sealed tuple set binds
// both in its additional data (Schema.AAD), so a set opened under any
// other schema or other positions fails its AEAD check instead of
// decoding into the wrong columns.

// EncodeTupleSet writes tuples as a tuple set with the columns at fixed
// (strictly ascending positions, fewer than a row's width) written once,
// in one buffer of exactly its length. It fails when the positions are
// malformed or a row's fixed value is not bit-for-bit the first row's.
// The tuples must otherwise conform to the schema the reader decodes with
// (a Relation's tuples do); nothing here checks it, and an invalid value
// writes nothing.
func EncodeTupleSet(tuples []Tuple, fixed []int) ([]byte, error) {
	return AppendTupleSet(nil, tuples, fixed)
}

// TupleSetLen returns the length of tuples' tuple set with the columns at
// fixed written once, and fails as EncodeTupleSet does.
func TupleSetLen(tuples []Tuple, fixed []int) (int, error) {
	arity := -1
	if len(tuples) > 0 {
		arity = len(tuples[0])
	}
	if err := checkFixed(fixed, arity); err != nil {
		return 0, err
	}
	size := uvarintLen(uint64(len(tuples)))
	if len(tuples) == 0 {
		return size, nil
	}
	first := tuples[0]
	for _, j := range fixed {
		size += first[j].wireLen()
	}
	for i, t := range tuples {
		fi := 0
		for j, v := range t {
			if fi < len(fixed) && fixed[fi] == j {
				if !v.sameBits(first[j]) {
					return 0, fmt.Errorf("relation: encode tuple set: row %d column %d is %v, not the fixed %v", i, j, v, first[j])
				}
				fi++
				continue
			}
			size += v.wireLen()
		}
		if fi < len(fixed) {
			return 0, fmt.Errorf("relation: encode tuple set: row %d has no column %d", i, fixed[fi])
		}
	}
	return size, nil
}

// AppendTupleSet appends tuples' tuple set to dst, which it grows once,
// to exactly its final length, when dst lacks room for the
// TupleSetLen bytes; it fails as EncodeTupleSet does.
func AppendTupleSet(dst []byte, tuples []Tuple, fixed []int) ([]byte, error) {
	n, err := TupleSetLen(tuples, fixed)
	if err != nil {
		return nil, err
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(tuples)))
	if len(tuples) == 0 {
		return dst, nil
	}
	first := tuples[0]
	for _, j := range fixed {
		dst = first[j].appendWire(dst)
	}
	for _, t := range tuples {
		fi := 0
		for j, v := range t {
			if fi < len(fixed) && fixed[fi] == j {
				fi++
				continue
			}
			dst = v.appendWire(dst)
		}
	}
	return dst, nil
}

// checkFixed accepts strictly ascending non-negative positions; against
// a known arity (≥ 0) they must also lie below it and leave a column
// unfixed, so every row has a non-zero width.
func checkFixed(fixed []int, arity int) error {
	for i, j := range fixed {
		if j < 0 || i > 0 && j <= fixed[i-1] {
			return fmt.Errorf("relation: tuple set: fixed positions %v are not strictly ascending", fixed)
		}
	}
	if arity >= 0 && len(fixed) > 0 && (fixed[len(fixed)-1] >= arity || len(fixed) >= arity) {
		return fmt.Errorf("relation: tuple set: fixed positions %v leave none of %d columns per row", fixed, arity)
	}
	return nil
}

// sameBits reports whether two values are identical bit for bit: a FLOAT
// NaN is the same as itself, and −0 is not +0.
func (v Value) sameBits(o Value) bool {
	return v == o
}

// wireLen is the length of the value in a tuple set.
func (v Value) wireLen() int {
	switch v.kind {
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	case KindString:
		return uvarintLen(uint64(len(v.s))) + len(v.s)
	default:
		return 0
	}
}

// appendWire appends the value's tuple-set encoding.
func (v Value) appendWire(dst []byte) []byte {
	switch v.kind {
	case KindInt, KindFloat:
		return binary.BigEndian.AppendUint64(dst, v.n)
	case KindBool:
		return append(dst, byte(v.n))
	case KindString:
		return append(binary.AppendUvarint(dst, uint64(len(v.s))), v.s...)
	default:
		return dst
	}
}

// DecodeTupleSet parses an EncodeTupleSet blob against the schema and
// fixed positions it was written under, and copies the fixed values into
// every row. It accepts exactly the encoder's output: varints must be
// minimal, BOOL bytes 0 or 1, and every byte must be consumed. The row
// count is checked against the bytes left, at the width of the unfixed
// columns, before anything is allocated; the rows share one backing array
// of values, and the TEXT values share one string copy of b.
func DecodeTupleSet(s Schema, fixed []int, b []byte) ([]Tuple, error) {
	l, err := newSetLayout(s, fixed)
	if err != nil {
		return nil, err
	}
	n, body, err := l.count(b)
	if err != nil {
		return nil, err
	}
	out := make([]Tuple, n)
	if err := l.decode(body, make([]Value, n*len(s.Columns)), out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeTupleSets decodes each of sets as DecodeTupleSet does, in order,
// into one relation of schema s. The sets' rows are counted first, so the
// relation's rows and their values are each allocated once, and since
// they were decoded by the schema's kinds, nothing validates them again.
func DecodeTupleSets(s Schema, fixed []int, sets [][]byte) (*Relation, error) {
	l, err := newSetLayout(s, fixed)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, b := range sets {
		n, _, err := l.count(b)
		if err != nil {
			return nil, err
		}
		total += n
	}
	arity := len(s.Columns)
	rows := make([]Tuple, total)
	vals := make([]Value, total*arity)
	at := 0
	for _, b := range sets {
		n, body, err := l.count(b)
		if err != nil {
			return nil, err
		}
		if err := l.decode(body, vals[at*arity:(at+n)*arity], rows[at:at+n]); err != nil {
			return nil, err
		}
		at += n
	}
	return &Relation{schema: s, tuples: rows}, nil
}

// TupleSetRows returns the row count at the head of a tuple set, checked
// against the bytes after it as DecodeTupleSet checks it.
func TupleSetRows(s Schema, fixed []int, b []byte) (int, error) {
	l, err := newSetLayout(s, fixed)
	if err != nil {
		return 0, err
	}
	n, _, err := l.count(b)
	return n, err
}

// setLayout is a schema's tuple-set layout under fixed positions.
type setLayout struct {
	cols  []Column
	fixed []int
	// minFixed and minRow are the least widths of the fixed values and
	// of a row's other values.
	minFixed, minRow int
	hasText          bool
}

func newSetLayout(s Schema, fixed []int) (setLayout, error) {
	l := setLayout{cols: s.Columns, fixed: fixed}
	if len(s.Columns) == 0 {
		return l, fmt.Errorf("relation: decode tuple set: schema %s has no columns", s.Relation)
	}
	if err := checkFixed(fixed, len(s.Columns)); err != nil {
		return l, err
	}
	fi := 0
	for j, c := range s.Columns {
		w := 0
		switch c.Kind {
		case KindInt, KindFloat:
			w = 8
		case KindBool:
			w = 1
		case KindString:
			w = 1
			l.hasText = true
		default:
			return l, fmt.Errorf("relation: decode tuple set: column %q has kind %v", c.Name, c.Kind)
		}
		if fi < len(fixed) && fixed[fi] == j {
			l.minFixed += w
			fi++
		} else {
			l.minRow += w
		}
	}
	return l, nil
}

// count reads a set's row count and returns it with the bytes after it.
// The count is checked against those bytes before anything is sized by
// it, and an empty set must end there.
func (l setLayout) count(b []byte) (int, []byte, error) {
	n, k := minimalUvarint(b)
	if k <= 0 {
		return 0, nil, fmt.Errorf("relation: decode tuple set: bad count")
	}
	b = b[k:]
	if n == 0 {
		if len(b) != 0 {
			return 0, nil, fmt.Errorf("relation: decode tuple set: %d trailing bytes", len(b))
		}
		return 0, b, nil
	}
	if len(b) < l.minFixed || n > uint64((len(b)-l.minFixed)/l.minRow) {
		return 0, nil, fmt.Errorf("relation: decode tuple set: %d rows of ≥ %d bytes in %d bytes", n, l.minRow, len(b))
	}
	return int(n), b, nil
}

// decode reads the len(out) rows of a set's body, the bytes after its
// count, into out, whose values it cuts from vals (len(out) rows wide).
func (l setLayout) decode(b []byte, vals []Value, out []Tuple) error {
	if len(out) == 0 {
		return nil
	}
	var text string
	if l.hasText {
		text = string(b)
	}
	arity := len(l.cols)
	off := 0
	for _, j := range l.fixed {
		if off = readWire(&vals[j], l.cols[j].Kind, b, text, off); off < 0 {
			return fmt.Errorf("relation: decode tuple set: fixed column %d is truncated or malformed", j)
		}
	}
	for i := range out {
		row := vals[i*arity : (i+1)*arity : (i+1)*arity]
		fi := 0
		for j, c := range l.cols {
			if fi < len(l.fixed) && l.fixed[fi] == j {
				row[j] = vals[j]
				fi++
				continue
			}
			if off = readWire(&row[j], c.Kind, b, text, off); off < 0 {
				return fmt.Errorf("relation: decode tuple set: row %d column %d is truncated or malformed", i, j)
			}
		}
		out[i] = row
	}
	if off != len(b) {
		return fmt.Errorf("relation: decode tuple set: %d trailing bytes", len(b)-off)
	}
	return nil
}

// readWire reads one value of kind k at b[off:] into v and returns the
// offset past it, or −1 when the bytes there are truncated, a BOOL byte
// is not 0 or 1, or a TEXT length is padded. A TEXT value is sliced from
// text, the string copy of b.
func readWire(v *Value, k Kind, b []byte, text string, off int) int {
	rest := b[off:]
	switch k {
	case KindInt, KindFloat:
		if len(rest) < 8 {
			return -1
		}
		u := binary.BigEndian.Uint64(rest)
		if k == KindInt {
			*v = Int(int64(u))
		} else {
			*v = Float(math.Float64frombits(u))
		}
		return off + 8
	case KindBool:
		if len(rest) < 1 || rest[0] > 1 {
			return -1
		}
		*v = Bool(rest[0] == 1)
		return off + 1
	default:
		l, k := minimalUvarint(rest)
		if k <= 0 || l > uint64(len(rest)-k) {
			return -1
		}
		off += k
		*v = String_(text[off : off+int(l)])
		return off + int(l)
	}
}

// minimalUvarint is binary.Uvarint accepting only the shortest encoding
// (a multi-byte varint whose last byte is zero is padded), so a tuple set
// has exactly one encoding, as its values do.
func minimalUvarint(b []byte) (uint64, int) {
	n, k := binary.Uvarint(b)
	if k > 1 && b[k-1] == 0 {
		return 0, 0
	}
	return n, k
}

func uvarintLen(n uint64) int {
	k := 1
	for ; n >= 0x80; n >>= 7 {
		k++
	}
	return k
}
