package relation

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A tuple set is the wire form of a list of tuples of one schema — DAS
// runs, Tup(a) in the commutative and PM protocols, mobile-code rows and
// the plaintext baseline's relations. It is a uvarint row count followed
// by each row's values in column order, with no kind byte and no row
// length: INT and FLOAT as 8 big-endian bytes, BOOL as one byte 0 or 1,
// TEXT as a minimal uvarint length and its bytes. Its length is therefore
//
//	vlen(n) + Σ_rows (8·#INT/FLOAT + #BOOL + Σ_TEXT (vlen(len) + len))
//
// for n rows: a value other than a TEXT never moves it.
//
// The layout holds no kinds and no names, so the reader supplies the
// schema. A sealed tuple set binds that schema in its additional data
// (Schema.AAD), so a set opened under any other schema fails its AEAD
// check instead of decoding into the wrong columns.

// EncodeTupleSet writes tuples as a tuple set, sized in one pass. The
// tuples must conform to the schema the reader decodes with (a
// Relation's tuples do); nothing here checks it, and an invalid value
// writes nothing.
func EncodeTupleSet(tuples []Tuple) []byte {
	size := uvarintLen(uint64(len(tuples)))
	for _, t := range tuples {
		for _, v := range t {
			size += v.wireLen()
		}
	}
	out := binary.AppendUvarint(make([]byte, 0, size), uint64(len(tuples)))
	for _, t := range tuples {
		for _, v := range t {
			out = v.appendWire(out)
		}
	}
	return out
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
	case KindInt:
		return binary.BigEndian.AppendUint64(dst, uint64(v.i))
	case KindFloat:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.f))
	case KindBool:
		if v.b {
			return append(dst, 1)
		}
		return append(dst, 0)
	case KindString:
		return append(binary.AppendUvarint(dst, uint64(len(v.s))), v.s...)
	default:
		return dst
	}
}

// DecodeTupleSet parses an EncodeTupleSet blob against the schema it was
// written under. It accepts exactly the encoder's output: varints must be
// minimal, BOOL bytes 0 or 1, and every byte must be consumed. The row
// count is checked against the bytes left before anything is allocated;
// the rows share one backing array of values, and the TEXT values share
// one string copy of b.
func DecodeTupleSet(s Schema, b []byte) ([]Tuple, error) {
	arity, minRow, hasText := len(s.Columns), 0, false
	for _, c := range s.Columns {
		switch c.Kind {
		case KindInt, KindFloat:
			minRow += 8
		case KindBool:
			minRow++
		case KindString:
			minRow++
			hasText = true
		default:
			return nil, fmt.Errorf("relation: decode tuple set: column %q has kind %v", c.Name, c.Kind)
		}
	}
	if arity == 0 {
		return nil, fmt.Errorf("relation: decode tuple set: schema %s has no columns", s.Relation)
	}
	n, k := minimalUvarint(b)
	if k <= 0 {
		return nil, fmt.Errorf("relation: decode tuple set: bad count")
	}
	b = b[k:]
	if n > uint64(len(b)/minRow) {
		return nil, fmt.Errorf("relation: decode tuple set: %d rows of ≥ %d bytes in %d bytes", n, minRow, len(b))
	}
	var text string
	if hasText {
		text = string(b)
	}
	vals := make([]Value, int(n)*arity)
	out := make([]Tuple, n)
	off := 0
	for i := range out {
		row := vals[i*arity : (i+1)*arity : (i+1)*arity]
		for j, c := range s.Columns {
			rest := b[off:]
			switch c.Kind {
			case KindInt, KindFloat:
				if len(rest) < 8 {
					return nil, fmt.Errorf("relation: decode tuple set: row %d column %d truncated", i, j)
				}
				u := binary.BigEndian.Uint64(rest)
				if c.Kind == KindInt {
					row[j] = Int(int64(u))
				} else {
					row[j] = Float(math.Float64frombits(u))
				}
				off += 8
			case KindBool:
				if len(rest) < 1 || rest[0] > 1 {
					return nil, fmt.Errorf("relation: decode tuple set: row %d column %d is no BOOL byte", i, j)
				}
				row[j] = Bool(rest[0] == 1)
				off++
			case KindString:
				l, k := minimalUvarint(rest)
				if k <= 0 || l > uint64(len(rest)-k) {
					return nil, fmt.Errorf("relation: decode tuple set: row %d column %d: padded or truncated TEXT", i, j)
				}
				off += k
				row[j] = String_(text[off : off+int(l)])
				off += int(l)
			}
		}
		out[i] = row
	}
	if off != len(b) {
		return nil, fmt.Errorf("relation: decode tuple set: %d trailing bytes", len(b)-off)
	}
	return out, nil
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
