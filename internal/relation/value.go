// Package relation implements the relational substrate of the secure
// mediation system: typed values, schemas, tuples and relations, together
// with deterministic byte encodings that the cryptographic protocols rely
// on (equal values must encode to equal byte strings, and distinct values
// to distinct byte strings).
//
// The package is deliberately self-contained: the mediator architecture of
// Biskup/Tsatedem/Wiese (ICDE 2007) assumes each datasource manages plain
// relations and that the mediator understands a homogeneous global schema.
package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the attribute types supported by the mediation system.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it is never valid in a schema.
	KindInvalid Kind = iota
	// KindInt is a 64-bit signed integer attribute.
	KindInt
	// KindString is a UTF-8 string attribute.
	KindString
	// KindFloat is a 64-bit floating point attribute.
	KindFloat
	// KindBool is a boolean attribute.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindString:
		return "TEXT"
	case KindFloat:
		return "FLOAT"
	case KindBool:
		return "BOOL"
	default:
		return "INVALID"
	}
}

// ParseKind converts a type name (as used in schema declarations and CSV
// headers) into a Kind. It accepts the names produced by Kind.String as
// well as a few common aliases, case-insensitively.
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INT", "INTEGER", "BIGINT":
		return KindInt, nil
	case "TEXT", "STRING", "VARCHAR", "CHAR":
		return KindString, nil
	case "FLOAT", "DOUBLE", "REAL":
		return KindFloat, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	default:
		return KindInvalid, fmt.Errorf("relation: unknown type %q", s)
	}
}

// Value is a dynamically typed attribute value. The zero Value has
// KindInvalid and compares unequal to every valid value.
//
// Value is a small immutable struct passed by value throughout the system.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// String_ returns a string value. (Named with a trailing underscore because
// String is reserved for fmt.Stringer.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Float returns a floating point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload; it panics if the value is not KindInt.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("relation: AsInt on %v value", v.kind))
	}
	return v.i
}

// AsString returns the string payload; it panics if the value is not KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relation: AsString on %v value", v.kind))
	}
	return v.s
}

// AsFloat returns the float payload; it panics if the value is not KindFloat.
func (v Value) AsFloat() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("relation: AsFloat on %v value", v.kind))
	}
	return v.f
}

// AsBool returns the boolean payload; it panics if the value is not KindBool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("relation: AsBool on %v value", v.kind))
	}
	return v.b
}

// Valid reports whether the value has a valid kind.
func (v Value) Valid() bool { return v.kind != KindInvalid }

// Equal reports whether two values are identical (same kind, same payload).
// Values of different kinds are never equal; no implicit coercion happens
// anywhere in the system, mirroring the paper's assumption of a homogeneous
// global schema.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt:
		return v.i == o.i
	case KindString:
		return v.s == o.s
	case KindFloat:
		return v.f == o.f
	case KindBool:
		return v.b == o.b
	default:
		return false
	}
}

// Compare orders two values of the same kind: -1 if v < o, 0 if equal,
// +1 if v > o. It panics on kind mismatch (schema checking happens before
// evaluation). Booleans order false < true. NaN floats order before all
// other floats and equal to each other, so that sorting is total.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		panic(fmt.Sprintf("relation: comparing %v with %v", v.kind, o.kind))
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		}
		return 0
	case KindString:
		return strings.Compare(v.s, o.s)
	case KindFloat:
		vn, on := math.IsNaN(v.f), math.IsNaN(o.f)
		switch {
		case vn && on:
			return 0
		case vn:
			return -1
		case on:
			return 1
		case v.f < o.f:
			return -1
		case v.f > o.f:
			return 1
		}
		return 0
	case KindBool:
		switch {
		case !v.b && o.b:
			return -1
		case v.b && !o.b:
			return 1
		}
		return 0
	default:
		panic("relation: comparing invalid values")
	}
}

// String renders the value for display and CSV output.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return v.s
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return "<invalid>"
	}
}

// Parse converts a textual representation into a value of the given kind.
// It is the inverse of String for all kinds (modulo float formatting).
func Parse(k Kind, s string) (Value, error) {
	switch k {
	case KindInt:
		i, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse INT %q: %w", s, err)
		}
		return Int(i), nil
	case KindString:
		return String_(s), nil
	case KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse FLOAT %q: %w", s, err)
		}
		return Float(f), nil
	case KindBool:
		b, err := strconv.ParseBool(strings.TrimSpace(s))
		if err != nil {
			return Value{}, fmt.Errorf("relation: parse BOOL %q: %w", s, err)
		}
		return Bool(b), nil
	default:
		return Value{}, fmt.Errorf("relation: parse into invalid kind")
	}
}

// Encode appends a deterministic, injective byte encoding of the value to
// dst and returns the extended slice. Two values encode to the same bytes
// iff Equal reports true; this property is what lets the cryptographic
// protocols (ideal hashing in the commutative protocol, polynomial-root
// encoding in the PM protocol) treat attribute values as canonical byte
// strings.
//
// Layout: 1 tag byte (the Kind), followed by a fixed 8-byte big-endian
// payload for INT/FLOAT, a single byte for BOOL, or a length-prefixed UTF-8
// string for TEXT.
func (v Value) Encode(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInt:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.i))
		dst = append(dst, buf[:]...)
	case KindString:
		var buf [4]byte
		binary.BigEndian.PutUint32(buf[:], uint32(len(v.s)))
		dst = append(dst, buf[:]...)
		dst = append(dst, v.s...)
	case KindFloat:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], math.Float64bits(v.f))
		dst = append(dst, buf[:]...)
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// DecodeValue decodes a value previously produced by Encode from the front
// of src, returning the value and the number of bytes consumed.
func DecodeValue(src []byte) (Value, int, error) {
	if len(src) == 0 {
		return Value{}, 0, fmt.Errorf("relation: decode value: empty input")
	}
	k := Kind(src[0])
	rest := src[1:]
	switch k {
	case KindInt:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("relation: decode INT: short input")
		}
		return Int(int64(binary.BigEndian.Uint64(rest[:8]))), 9, nil
	case KindString:
		if len(rest) < 4 {
			return Value{}, 0, fmt.Errorf("relation: decode TEXT: short input")
		}
		n := int(binary.BigEndian.Uint32(rest[:4]))
		if len(rest) < 4+n {
			return Value{}, 0, fmt.Errorf("relation: decode TEXT: short input")
		}
		return String_(string(rest[4 : 4+n])), 5 + n, nil
	case KindFloat:
		if len(rest) < 8 {
			return Value{}, 0, fmt.Errorf("relation: decode FLOAT: short input")
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(rest[:8]))), 9, nil
	case KindBool:
		if len(rest) < 1 {
			return Value{}, 0, fmt.Errorf("relation: decode BOOL: short input")
		}
		// Only the canonical encodings 0 and 1 are accepted; anything else
		// would make two distinct byte strings decode to equal values,
		// breaking the injectivity the cryptographic protocols rely on.
		switch rest[0] {
		case 0:
			return Bool(false), 2, nil
		case 1:
			return Bool(true), 2, nil
		default:
			return Value{}, 0, fmt.Errorf("relation: decode BOOL: non-canonical byte %d", rest[0])
		}
	default:
		return Value{}, 0, fmt.Errorf("relation: decode value: bad tag %d", src[0])
	}
}
