package relation

import (
	"encoding/binary"
	"errors"

	"github.com/secmediation/secmediation/internal/codec"
)

// EncodeTo writes the value's canonical encoding (see Encode). An
// invalid value has none.
func (v Value) EncodeTo(e *codec.Encoder) {
	if !v.Valid() {
		e.Fail(errors.New("relation: encoding an invalid value"))
		return
	}
	e.Append(v.Encode)
}

// DecodeFrom reads a canonical value encoding.
func (v *Value) DecodeFrom(d *codec.Decoder) {
	d.Next(func(src []byte) (int, error) {
		dec, n, err := DecodeValue(src)
		*v = dec
		return n, err
	})
}

// EncodeTo writes the schema: the relation name, then each column's name
// and kind byte.
func (s Schema) EncodeTo(e *codec.Encoder) {
	e.Text(s.Relation)
	e.Len(len(s.Columns))
	for _, c := range s.Columns {
		e.Text(c.Name)
		e.Byte(byte(c.Kind))
	}
}

// DecodeFrom reads a schema written by EncodeTo.
func (s *Schema) DecodeFrom(d *codec.Decoder) {
	s.Relation = d.Text()
	n := d.Count(2)
	s.Columns = nil
	if n > 0 {
		s.Columns = make([]Column, n)
	}
	for i := range s.Columns {
		s.Columns[i] = Column{Name: d.Text(), Kind: Kind(d.Byte())}
	}
}

// AAD is the additional data a tuple set of this schema is sealed under:
// the schema's encoding, then a uvarint count and the uvarint positions of
// the columns the set is keyed on (none for a set keyed on nothing), then
// tag. A tuple set carries neither kinds, names nor positions, so binding
// them makes a set relayed under any other schema — columns renamed,
// swapped or retyped — or under other key columns fail its AEAD check
// instead of decoding into the wrong columns. The schema encoding and the
// position list are self-delimiting, so no two (schema, positions, tag)
// triples share an AAD.
func (s Schema) AAD(tag string, keyCols ...int) []byte {
	b, err := codec.Marshal(s)
	if err != nil {
		panic(err) // unreachable: Schema.EncodeTo never fails
	}
	b = binary.AppendUvarint(b, uint64(len(keyCols)))
	for _, j := range keyCols {
		b = binary.AppendUvarint(b, uint64(j))
	}
	return append(b, tag...)
}
