package mediation

import (
	"fmt"
	"time"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/crypto/commutative"
	"github.com/secmediation/secmediation/internal/crypto/ecelgamal"
	"github.com/secmediation/secmediation/internal/crypto/hybrid"
	"github.com/secmediation/secmediation/internal/pm"
	"github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/sqlparse"
)

// The layout of every message a party sends (package codec): its fields
// in declaration order, with no names and no type descriptors. Session
// shares are 33-byte points, commutative elements 32 bytes and
// EC-ElGamal ciphertexts 66, all written bare; everything a party relays
// unopened is a length-prefixed byte string.

// paramPushdown is the one flag bit of Params' flag byte.
const paramPushdown = 1

// EncodeTo writes the parameters; the deprecated PayloadMode, Strategy
// and Buckets are not sent.
func (p Params) EncodeTo(e *codec.Encoder) {
	e.Int(int64(p.Partitions))
	var flags byte
	if p.Pushdown {
		flags |= paramPushdown
	}
	e.Byte(flags)
	e.Int(int64(p.Timeout))
	e.Text(p.QueryID)
	e.Int(int64(p.Attempt))
}

// DecodeFrom reads parameters written by EncodeTo. It checks the layout
// only; check bounds the values.
func (p *Params) DecodeFrom(d *codec.Decoder) {
	*p = Params{Partitions: d.Int()}
	flags := d.Byte()
	if flags&^paramPushdown != 0 {
		d.Fail(fmt.Errorf("mediation: unknown parameter flags %#x", flags))
	}
	p.Pushdown = flags&paramPushdown != 0
	p.Timeout = time.Duration(d.Int64())
	p.QueryID = d.Text()
	p.Attempt = d.Int()
}

// EncodeTo writes the request.
func (r Request) EncodeTo(e *codec.Encoder) {
	e.Text(r.SQL)
	r.Credentials.EncodeTo(e)
	e.Byte(byte(r.Protocol))
	r.Params.EncodeTo(e)
	e.Bytes(r.QueryKey)
	e.Bytes(r.QueryKeySig)
	e.Uint(r.QueryKeyIndex)
}

// DecodeFrom reads a request written by EncodeTo.
func (r *Request) DecodeFrom(d *codec.Decoder) {
	r.SQL = d.Text()
	r.Credentials.DecodeFrom(d)
	r.Protocol = Protocol(d.Byte())
	r.Params.DecodeFrom(d)
	r.QueryKey = d.Bytes()
	r.QueryKeySig = d.Bytes()
	r.QueryKeyIndex = d.Uint()
}

// EncodeTo writes the partial query; an aggregate spec follows a 1 byte,
// its absence is a 0 byte.
func (pq PartialQuery) EncodeTo(e *codec.Encoder) {
	e.Text(pq.SessionID)
	e.Text(pq.Query)
	e.Text(pq.Relation)
	e.Strings(pq.JoinCols)
	e.Strings(pq.FilterCols)
	pq.Credentials.EncodeTo(e)
	e.Byte(byte(pq.Protocol))
	pq.Params.EncodeTo(e)
	e.Bytes(pq.QueryKey)
	e.Bytes(pq.QueryKeySig)
	e.Uint(pq.QueryKeyIndex)
	e.Bool(pq.Aggregate != nil)
	if pq.Aggregate != nil {
		e.Text(pq.Aggregate.Func)
		e.Text(pq.Aggregate.Column)
	}
}

// DecodeFrom reads a partial query written by EncodeTo.
func (pq *PartialQuery) DecodeFrom(d *codec.Decoder) {
	pq.SessionID, pq.Query, pq.Relation = d.Text(), d.Text(), d.Text()
	pq.JoinCols, pq.FilterCols = d.Strings(), d.Strings()
	pq.Credentials.DecodeFrom(d)
	pq.Protocol = Protocol(d.Byte())
	pq.Params.DecodeFrom(d)
	pq.QueryKey, pq.QueryKeySig, pq.QueryKeyIndex = d.Bytes(), d.Bytes(), d.Uint()
	pq.Aggregate = nil
	if d.Bool() {
		pq.Aggregate = &sqlparse.AggregateSpec{Func: d.Text(), Column: d.Text()}
	}
}

// EncodeTo writes the acknowledgement.
func (a PartialAck) EncodeTo(e *codec.Encoder) {
	e.Bool(a.Granted)
	e.Text(a.Reason)
	a.Schema.EncodeTo(e)
}

// DecodeFrom reads an acknowledgement written by EncodeTo.
func (a *PartialAck) DecodeFrom(d *codec.Decoder) {
	a.Granted, a.Reason = d.Bool(), d.Text()
	a.Schema.DecodeFrom(d)
}

// EncodeTo writes the schema, then the tuples as a tuple set with no
// fixed columns (relation.EncodeTupleSet), with its length.
func (w wireRelation) EncodeTo(e *codec.Encoder) {
	w.Schema.EncodeTo(e)
	set, err := relation.EncodeTupleSet(w.Tuples, nil)
	if err != nil {
		e.Fail(err)
		return
	}
	e.Bytes(set)
}

// DecodeFrom reads a relation written by EncodeTo.
func (w *wireRelation) DecodeFrom(d *codec.Decoder) {
	w.Schema.DecodeFrom(d)
	set := d.Bytes()
	if d.Err() != nil {
		return
	}
	var err error
	if w.Tuples, err = relation.DecodeTupleSet(w.Schema, nil, set); err != nil {
		d.Fail(err)
	}
	if len(w.Tuples) == 0 {
		w.Tuples = nil
	}
}

// EncodeTo writes the joined relation and the right side's schema and
// join columns.
func (r ptResult) EncodeTo(e *codec.Encoder) {
	r.Result.EncodeTo(e)
	r.Schema2.EncodeTo(e)
	e.Strings(r.JoinCols2)
}

// DecodeFrom reads a result written by EncodeTo.
func (r *ptResult) DecodeFrom(d *codec.Decoder) {
	r.Result.DecodeFrom(d)
	r.Schema2.DecodeFrom(d)
	r.JoinCols2 = d.Strings()
}

// EncodeTo writes the sealed partial result.
func (p mcPartial) EncodeTo(e *codec.Encoder) {
	e.Text(p.Session)
	p.Schema.EncodeTo(e)
	e.Fixed(p.KeyShare, hybrid.PointSize)
	e.ByteStrings(p.Rows)
}

// DecodeFrom reads a partial result written by EncodeTo.
func (p *mcPartial) DecodeFrom(d *codec.Decoder) {
	p.Session = d.Text()
	p.Schema.DecodeFrom(d)
	p.KeyShare = d.Fixed(hybrid.PointSize)
	p.Rows = d.ByteStrings()
}

// mcPartialSize is the least encoding of an mcPartial.
const mcPartialSize = 1 + 2 + hybrid.PointSize + 1

// EncodeTo writes the partial results.
func (r mcResult) EncodeTo(e *codec.Encoder) {
	e.Len(len(r.Partials))
	for _, p := range r.Partials {
		p.EncodeTo(e)
	}
}

// DecodeFrom reads a result written by EncodeTo.
func (r *mcResult) DecodeFrom(d *codec.Decoder) {
	r.Partials = nil
	if n := d.Count(mcPartialSize); n > 0 {
		r.Partials = make([]mcPartial, n)
	}
	for i := range r.Partials {
		r.Partials[i].DecodeFrom(d)
	}
}

// EncodeTo writes a source's DAS message; the sealed index tables are a
// length-prefixed blob.
func (p dasPartial) EncodeTo(e *codec.Encoder) {
	e.Text(p.Session)
	p.Schema.EncodeTo(e)
	e.Strings(p.Columns)
	p.EncRel.EncodeTo(e)
	e.Bytes(p.EncIndexTables)
}

// DecodeFrom reads a DAS message written by EncodeTo.
func (p *dasPartial) DecodeFrom(d *codec.Decoder) {
	p.Session = d.Text()
	p.Schema.DecodeFrom(d)
	p.Columns = d.Strings()
	p.EncRel.DecodeFrom(d)
	p.EncIndexTables = d.Bytes()
}

// EncodeTo writes the mediator's step 4 message.
func (m dasIndexTables) EncodeTo(e *codec.Encoder) {
	e.Text(m.Session)
	m.Schema1.EncodeTo(e)
	m.Schema2.EncodeTo(e)
	e.Strings(m.Cols1)
	e.Strings(m.Cols2)
	e.Fixed(m.Share1, hybrid.PointSize)
	e.Fixed(m.Share2, hybrid.PointSize)
	e.Bytes(m.Enc1)
	e.Bytes(m.Enc2)
}

// DecodeFrom reads a step 4 message written by EncodeTo.
func (m *dasIndexTables) DecodeFrom(d *codec.Decoder) {
	m.Session = d.Text()
	m.Schema1.DecodeFrom(d)
	m.Schema2.DecodeFrom(d)
	m.Cols1, m.Cols2 = d.Strings(), d.Strings()
	m.Share1, m.Share2 = d.Fixed(hybrid.PointSize), d.Fixed(hybrid.PointSize)
	m.Enc1, m.Enc2 = d.Bytes(), d.Bytes()
}

// EncodeTo writes both tables of sealed runs, each a count and every
// run with its length, then |R_C|. The decoder rejects an empty run.
func (r dasResult) EncodeTo(e *codec.Encoder) {
	e.ByteStrings(r.E1)
	e.ByteStrings(r.E2)
	e.Int(int64(r.Size))
}

// DecodeFrom reads a result written by EncodeTo.
func (r *dasResult) DecodeFrom(d *codec.Decoder) {
	r.E1, r.E2 = decodeRuns(d), decodeRuns(d)
	r.Size = d.Int()
}

// decodeRuns reads one table of a das.result: a run takes its length
// and at least one byte.
func decodeRuns(d *codec.Decoder) [][]byte {
	n := d.Count(2)
	if n == 0 {
		return nil
	}
	runs := make([][]byte, n)
	for i := range runs {
		if runs[i] = d.Bytes(); runs[i] == nil {
			d.Fail(fmt.Errorf("mediation: DAS run %d is empty", i))
			return nil
		}
	}
	return runs
}

// commItemSize is the least encoding of a commItem: its element and an
// empty payload's length.
const commItemSize = commutative.ElementSize + 1

// EncodeTo writes the 32-byte element and the sealed tuple set.
func (it commItem) EncodeTo(e *codec.Encoder) {
	e.Fixed(it.Hash, commutative.ElementSize)
	e.Bytes(it.Payload)
}

// DecodeFrom reads an item written by EncodeTo.
func (it *commItem) DecodeFrom(d *codec.Decoder) {
	it.Hash = d.Fixed(commutative.ElementSize)
	it.Payload = d.Bytes()
}

// EncodeTo writes a source's step 3 message.
func (o commOffer) EncodeTo(e *codec.Encoder) {
	e.Text(o.Session)
	o.Schema.EncodeTo(e)
	e.Fixed(o.KeyShare, hybrid.PointSize)
	e.Len(len(o.Items))
	for _, it := range o.Items {
		it.EncodeTo(e)
	}
}

// DecodeFrom reads a step 3 message written by EncodeTo.
func (o *commOffer) DecodeFrom(d *codec.Decoder) {
	o.Session = d.Text()
	o.Schema.DecodeFrom(d)
	o.KeyShare = d.Fixed(hybrid.PointSize)
	o.Items = nil
	if n := d.Count(commItemSize); n > 0 {
		o.Items = make([]commItem, n)
	}
	for i := range o.Items {
		o.Items[i].DecodeFrom(d)
	}
}

// EncodeTo writes the elements: a count, then each element bare.
func (c commCross) EncodeTo(e *codec.Encoder) {
	e.Len(len(c.Elems))
	for _, el := range c.Elems {
		e.Fixed(el, commutative.ElementSize)
	}
}

// DecodeFrom reads elements written by EncodeTo.
func (c *commCross) DecodeFrom(d *codec.Decoder) {
	c.Elems = nil
	if n := d.Count(commutative.ElementSize); n > 0 {
		c.Elems = make([][]byte, n)
	}
	for i := range c.Elems {
		c.Elems[i] = d.Fixed(commutative.ElementSize)
	}
}

// EncodeTo writes the mediator's step 7 message; each pair is its two
// sealed tuple sets.
func (r commResult) EncodeTo(e *codec.Encoder) {
	e.Text(r.Session)
	r.Schema1.EncodeTo(e)
	r.Schema2.EncodeTo(e)
	e.Fixed(r.Share1, hybrid.PointSize)
	e.Fixed(r.Share2, hybrid.PointSize)
	e.Len(len(r.Pairs))
	for _, p := range r.Pairs {
		e.Bytes(p.T1)
		e.Bytes(p.T2)
	}
}

// DecodeFrom reads a step 7 message written by EncodeTo.
func (r *commResult) DecodeFrom(d *codec.Decoder) {
	r.Session = d.Text()
	r.Schema1.DecodeFrom(d)
	r.Schema2.DecodeFrom(d)
	r.Share1, r.Share2 = d.Fixed(hybrid.PointSize), d.Fixed(hybrid.PointSize)
	r.Pairs = nil
	if n := d.Count(2); n > 0 {
		r.Pairs = make([]commPair, n)
	}
	for i := range r.Pairs {
		r.Pairs[i] = commPair{T1: d.Bytes(), T2: d.Bytes()}
	}
}

// EncodeTo writes a source's step 2/3 message.
func (c pmCoeffs) EncodeTo(e *codec.Encoder) {
	e.Text(c.Session)
	c.Schema.EncodeTo(e)
	c.Buckets.EncodeTo(e)
}

// DecodeFrom reads a step 2/3 message written by EncodeTo.
func (c *pmCoeffs) DecodeFrom(d *codec.Decoder) {
	c.Session = d.Text()
	c.Schema.DecodeFrom(d)
	c.Buckets.DecodeFrom(d)
}

// evalSize is the least encoding of a pm.Eval: its ciphertext and an
// empty blob's length.
const evalSize = ecelgamal.CiphertextSize + 1

func encodeEvals(e *codec.Encoder, evals []pm.Eval) {
	e.Len(len(evals))
	for _, ev := range evals {
		ev.EncodeTo(e)
	}
}

func decodeEvals(d *codec.Decoder) []pm.Eval {
	n := d.Count(evalSize)
	if n == 0 {
		return nil
	}
	evals := make([]pm.Eval, n)
	for i := range evals {
		evals[i].DecodeFrom(d)
	}
	return evals
}

// EncodeTo writes the evaluations.
func (m pmEvals) EncodeTo(e *codec.Encoder) { encodeEvals(e, m.Evals) }

// DecodeFrom reads evaluations written by EncodeTo.
func (m *pmEvals) DecodeFrom(d *codec.Decoder) { m.Evals = decodeEvals(d) }

// EncodeTo writes the mediator's step 7 message.
func (r pmResult) EncodeTo(e *codec.Encoder) {
	e.Text(r.Session)
	r.Schema1.EncodeTo(e)
	r.Schema2.EncodeTo(e)
	encodeEvals(e, r.Evals1)
	encodeEvals(e, r.Evals2)
}

// DecodeFrom reads a step 7 message written by EncodeTo.
func (r *pmResult) DecodeFrom(d *codec.Decoder) {
	r.Session = d.Text()
	r.Schema1.DecodeFrom(d)
	r.Schema2.DecodeFrom(d)
	r.Evals1, r.Evals2 = decodeEvals(d), decodeEvals(d)
}
