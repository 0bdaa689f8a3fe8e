package das

import (
	"errors"
	"fmt"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
)

// EncodeTo writes R^S: the name, the 33-byte key share, the number of
// index values per run (one per indexed column, the same for every run,
// and at least one when there are runs), then the runs, each its 8-byte
// index values, its row count and its sealed tuple set. Runs ascend
// strictly by index vector, hold at least one row each, and their sealed
// tuple set takes at least one byte per row.
func (er EncryptedRelation) EncodeTo(e *codec.Encoder) {
	e.Text(er.Name)
	e.Fixed(er.KeyShare, hybrid.PointSize)
	width := 0
	if len(er.Runs) > 0 {
		width = len(er.Runs[0].Index)
	}
	e.Len(width)
	e.Len(len(er.Runs))
	for i, run := range er.Runs {
		if err := checkRun(er.Runs, i, width); err != nil {
			e.Fail(err)
			return
		}
		for _, iv := range run.Index {
			e.Uint64(uint64(iv))
		}
		e.Len(run.Rows)
		e.Bytes(run.Sealed)
	}
}

// DecodeFrom reads R^S written by EncodeTo.
func (er *EncryptedRelation) DecodeFrom(d *codec.Decoder) {
	er.Name = d.Text()
	er.KeyShare = d.Fixed(hybrid.PointSize)
	width := d.Count(8)
	// A run is its index values, a row count, a length and one byte
	// per row.
	n := d.Count(8*width + 3)
	if (n == 0) != (width == 0) {
		d.Fail(fmt.Errorf("das: %d runs of %d index values", n, width))
	}
	er.Runs = nil
	if n == 0 || d.Err() != nil {
		return
	}
	er.Runs = make([]Run, n)
	index := make([]IndexValue, n*width)
	for i := range er.Runs {
		run := &er.Runs[i]
		run.Index = index[i*width : (i+1)*width : (i+1)*width]
		for j := range run.Index {
			run.Index[j] = IndexValue(d.Uint64())
		}
		run.Rows = d.Count(1)
		run.Sealed = d.Bytes()
		if d.Err() != nil {
			return
		}
		if err := checkRun(er.Runs, i, width); err != nil {
			d.Fail(err)
			return
		}
	}
}

// checkRun is the layout's constraint on runs[i].
func checkRun(runs []Run, i, width int) error {
	run := runs[i]
	switch {
	case width == 0 || len(run.Index) != width:
		return fmt.Errorf("das: run with %d index values, want %d ≥ 1", len(run.Index), width)
	case run.Rows < 1 || run.Rows > len(run.Sealed):
		return fmt.Errorf("das: run of %d rows in %d sealed bytes", run.Rows, len(run.Sealed))
	case i > 0 && !lessIndex(runs[i-1].Index, run.Index):
		return errors.New("das: runs out of index order")
	}
	return nil
}

// lessIndex orders index vectors of one width lexicographically.
func lessIndex(a, b []IndexValue) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
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
// each its partition's two bounds and its 8-byte index value.
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
			if err := checkInterval(en.Partition); err != nil {
				e.Fail(err)
				return
			}
			en.Partition.Lo.EncodeTo(e)
			en.Partition.Hi.EncodeTo(e)
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
		// The smallest entry is two BOOL bounds and its index value.
		if n := d.Count(12); n > 0 {
			it.Entries = make([]IndexEntry, n)
		}
		for j := range it.Entries {
			var p Partition
			p.Lo.DecodeFrom(d)
			p.Hi.DecodeFrom(d)
			it.Entries[j] = IndexEntry{Partition: p, Index: IndexValue(d.Uint64())}
			if d.Err() != nil {
				return
			}
			if err := checkInterval(p); err != nil {
				d.Fail(err)
				return
			}
		}
		(*its)[i] = it
	}
}

// checkInterval is the layout's constraint on a partition: bounds of
// one kind, Lo ≤ Hi. Overlaps and Contains compare bounds across
// partitions, so a mixed-kind interval would panic them.
func checkInterval(p Partition) error {
	switch {
	case p.Lo.Kind() != p.Hi.Kind():
		return fmt.Errorf("das: interval bounds of kinds %v and %v", p.Lo.Kind(), p.Hi.Kind())
	case !p.Lo.Valid():
		return errors.New("das: interval without bounds")
	case p.Lo.Compare(p.Hi) > 0:
		return errors.New("das: interval with Lo > Hi")
	}
	return nil
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
