package das

import (
	"errors"
	"fmt"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/relation"
)

// EncodeTo writes R^S: the name, the 33-byte key share, the number of
// index values per tuple (one per indexed column, the same for every
// tuple), then each tuple's etuple and its 8-byte index values.
func (er EncryptedRelation) EncodeTo(e *codec.Encoder) {
	e.Text(er.Name)
	e.Fixed(er.KeyShare, hybrid.PointSize)
	width := 0
	if len(er.Tuples) > 0 {
		width = len(er.Tuples[0].Index)
	}
	e.Len(width)
	e.Len(len(er.Tuples))
	for _, t := range er.Tuples {
		if len(t.Index) != width {
			e.Fail(fmt.Errorf("das: tuple with %d index values, want %d", len(t.Index), width))
			return
		}
		e.Bytes(t.Etuple)
		for _, iv := range t.Index {
			e.Uint64(uint64(iv))
		}
	}
}

// DecodeFrom reads R^S written by EncodeTo.
func (er *EncryptedRelation) DecodeFrom(d *codec.Decoder) {
	er.Name = d.Text()
	er.KeyShare = d.Fixed(hybrid.PointSize)
	width := d.Count(8)
	n := d.Count(1 + 8*width)
	if n == 0 && width != 0 {
		d.Fail(errors.New("das: index width without tuples"))
	}
	er.Tuples = nil
	if n == 0 {
		return
	}
	er.Tuples = make([]EncTuple, n)
	for i := range er.Tuples {
		t := &er.Tuples[i]
		t.Etuple = d.Bytes()
		if width > 0 {
			t.Index = make([]IndexValue, width)
		}
		for j := range t.Index {
			t.Index[j] = IndexValue(d.Uint64())
		}
	}
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (er EncryptedRelation) MarshalBinary() ([]byte, error) { return codec.Marshal(er) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (er *EncryptedRelation) UnmarshalBinary(b []byte) error { return codec.Unmarshal(b, er) }

// EncodeTo writes q_S: per join attribute its admissible index pairs
// (16 bytes each), then each side's filters (an attribute position and
// its admissible index values).
func (q ServerQuery) EncodeTo(e *codec.Encoder) {
	e.Len(len(q.PerAttr))
	for _, pairs := range q.PerAttr {
		e.Len(len(pairs))
		for _, p := range pairs {
			e.Uint64(uint64(p.I1))
			e.Uint64(uint64(p.I2))
		}
	}
	encodeFilters(e, q.Filters1)
	encodeFilters(e, q.Filters2)
}

// DecodeFrom reads q_S written by EncodeTo.
func (q *ServerQuery) DecodeFrom(d *codec.Decoder) {
	q.PerAttr = nil
	if n := d.Count(1); n > 0 {
		q.PerAttr = make([][]IndexPair, n)
	}
	for i := range q.PerAttr {
		if n := d.Count(16); n > 0 {
			q.PerAttr[i] = make([]IndexPair, n)
		}
		for j := range q.PerAttr[i] {
			q.PerAttr[i][j] = IndexPair{I1: IndexValue(d.Uint64()), I2: IndexValue(d.Uint64())}
		}
	}
	q.Filters1 = decodeFilters(d)
	q.Filters2 = decodeFilters(d)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (q ServerQuery) MarshalBinary() ([]byte, error) { return codec.Marshal(q) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *ServerQuery) UnmarshalBinary(b []byte) error { return codec.Unmarshal(b, q) }

func encodeFilters(e *codec.Encoder, fs []IndexFilter) {
	e.Len(len(fs))
	for _, f := range fs {
		e.Int(int64(f.Attr))
		e.Len(len(f.Allowed))
		for _, iv := range f.Allowed {
			e.Uint64(uint64(iv))
		}
	}
}

func decodeFilters(d *codec.Decoder) []IndexFilter {
	n := d.Count(2)
	if n == 0 {
		return nil
	}
	fs := make([]IndexFilter, n)
	for i := range fs {
		fs[i].Attr = d.Int()
		if m := d.Count(8); m > 0 {
			fs[i].Allowed = make([]IndexValue, m)
		}
		for j := range fs[i].Allowed {
			fs[i].Allowed[j] = IndexValue(d.Uint64())
		}
	}
	return fs
}

// indexTables is the layout of a source's index tables.
type indexTables []*IndexTable

// EncodeTo writes the tables: per table its attribute and its entries,
// each a partition and its 8-byte index value. An interval partition is
// a 1 byte and its two bounds; a bucket partition is a 0 byte, its
// members, its ordinal and the bucket count.
func (its indexTables) EncodeTo(e *codec.Encoder) {
	e.Len(len(its))
	for _, it := range its {
		if it == nil {
			e.Fail(errors.New("das: encoding a nil index table"))
			return
		}
		e.Text(it.Attribute)
		e.Len(len(it.Entries))
		for _, en := range it.Entries {
			p := en.Partition
			e.Bool(p.IsInterval)
			if p.IsInterval {
				p.Lo.EncodeTo(e)
				p.Hi.EncodeTo(e)
			} else {
				e.Len(len(p.Members))
				for _, m := range p.Members {
					m.EncodeTo(e)
				}
				e.Int(int64(p.Bucket))
				e.Int(int64(p.BucketCount))
			}
			e.Uint64(uint64(en.Index))
		}
	}
}

// DecodeFrom reads tables written by EncodeTo.
func (its *indexTables) DecodeFrom(d *codec.Decoder) {
	*its = nil
	if n := d.Count(2); n > 0 {
		*its = make(indexTables, n)
	}
	for i := range *its {
		it := &IndexTable{Attribute: d.Text()}
		// The smallest entry is an empty bucket partition: 4 bytes and
		// its index value.
		if n := d.Count(12); n > 0 {
			it.Entries = make([]IndexEntry, n)
		}
		for j := range it.Entries {
			var p Partition
			if p.IsInterval = d.Bool(); p.IsInterval {
				p.Lo.DecodeFrom(d)
				p.Hi.DecodeFrom(d)
			} else {
				if m := d.Count(2); m > 0 {
					p.Members = make([]relation.Value, m)
				}
				for k := range p.Members {
					p.Members[k].DecodeFrom(d)
				}
				p.Bucket, p.BucketCount = d.Int(), d.Int()
			}
			it.Entries[j] = IndexEntry{Partition: p, Index: IndexValue(d.Uint64())}
		}
		(*its)[i] = it
	}
}

// EncodeIndexTables is the plaintext a source seals its index tables
// in.
func EncodeIndexTables(its []*IndexTable) ([]byte, error) {
	return codec.Marshal(indexTables(its))
}

// DecodeIndexTables parses an EncodeIndexTables plaintext.
func DecodeIndexTables(b []byte) ([]*IndexTable, error) {
	var its indexTables
	err := codec.Unmarshal(b, &its)
	return its, err
}
