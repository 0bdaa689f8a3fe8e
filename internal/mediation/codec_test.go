package mediation

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/das"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/pm"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/transport"
)

// messageDecoders lists every delivery-phase message tag with the type
// its payload decodes into, plus the plaintext of a source's sealed
// index tables. The abort frame's layout belongs to package link.
var messageDecoders = []struct {
	typ string
	new func() codec.Decodable
}{
	{msgRequest, func() codec.Decodable { return new(Request) }},
	{msgPartialQuery, func() codec.Decodable { return new(PartialQuery) }},
	{msgPartialAck, func() codec.Decodable { return new(PartialAck) }},
	{msgDASPartial, func() codec.Decodable { return new(dasPartial) }},
	{msgDASIndexTables, func() codec.Decodable { return new(dasIndexTables) }},
	{msgDASServerQuery, func() codec.Decodable { return new(das.ServerQuery) }},
	{msgDASResult, func() codec.Decodable { return new(dasResult) }},
	{msgCommOffer, func() codec.Decodable { return new(commOffer) }},
	{msgCommCross, func() codec.Decodable { return new(commCross) }},
	{msgCommCrossBack, func() codec.Decodable { return new(commCross) }},
	{msgCommResult, func() codec.Decodable { return new(commResult) }},
	{msgPMCoeffs, func() codec.Decodable { return new(pmCoeffs) }},
	{msgPMCross, func() codec.Decodable { return new(pm.ECBuckets) }},
	{msgPMEvals, func() codec.Decodable { return new(pmEvals) }},
	{msgPMResult, func() codec.Decodable { return new(pmResult) }},
	{msgMCPartial, func() codec.Decodable { return new(mcPartial) }},
	{msgMCResult, func() codec.Decodable { return new(mcResult) }},
	{msgPTPartial, func() codec.Decodable { return new(wireRelation) }},
	{msgPTResult, func() codec.Decodable { return new(ptResult) }},
	{"das.index-tables (sealed)", func() codec.Decodable { return new(sealedIndexTables) }},
}

// sealedIndexTables is the plaintext a DAS source seals its index tables
// in (das.EncodeIndexTables).
type sealedIndexTables []*das.IndexTable

func (its sealedIndexTables) EncodeTo(e *codec.Encoder) {
	b, err := das.EncodeIndexTables(its)
	if err != nil {
		e.Fail(err)
		return
	}
	e.Fixed(b, len(b))
}

func (its *sealedIndexTables) DecodeFrom(d *codec.Decoder) {
	d.Next(func(b []byte) (int, error) {
		tables, err := das.DecodeIndexTables(b)
		*its = tables
		return len(b), err
	})
}

// decoderFor returns the decoder index of a message tag.
func decoderFor(t testing.TB, typ string) int {
	for i, d := range messageDecoders {
		if d.typ == typ {
			return i
		}
	}
	t.Fatalf("no decoder for %q", typ)
	return -1
}

// wireSample is one message payload a party sent in a sampling run.
type wireSample struct {
	run, typ string
	payload  []byte
}

// sampleMessages runs one tiny query per protocol over Pair links — DAS
// also with selection pushdown — plus a union and an aggregate, and returns the first payload of every message
// type in each run.
func sampleMessages(t *testing.T) []wireSample {
	t.Helper()
	union := func() *Network {
		schema := rel.MustSchema("A", rel.Column{Name: "k", Kind: rel.KindInt})
		return unionNetwork(t, rel.MustFromTuples(schema, rel.Tuple{rel.Int(1)}, rel.Tuple{rel.Int(2)}, rel.Tuple{rel.Int(2)}),
			rel.MustFromTuples(schema.Rename("B"), rel.Tuple{rel.Int(2)}, rel.Tuple{rel.Int(3)}))
	}
	pushdown := fastParams()
	pushdown.Pushdown = true
	runs := []struct {
		name   string
		n      *Network
		sql    string
		proto  Protocol
		params Params
	}{
		{"plaintext", newTestNetwork(t, nil), fixtureSQL, ProtocolPlaintext, fastParams()},
		{"mobile-code", newTestNetwork(t, nil), fixtureSQL, ProtocolMobileCode, fastParams()},
		{"das", newTestNetwork(t, nil), fixtureSQL, ProtocolDAS, fastParams()},
		{"das-pushdown", newTestNetwork(t, nil), fixtureSQL + " WHERE R1.id > 1", ProtocolDAS, pushdown},
		{"commutative", newTestNetwork(t, nil), fixtureSQL, ProtocolCommutative, fastParams()},
		{"pm", newTestNetwork(t, nil), fixtureSQL, ProtocolPM, fastParams()},
		{"union", union(), "SELECT * FROM A UNION SELECT * FROM B", ProtocolDAS, fastParams()},
		{"aggregate", aggNetwork(t, nil), "SELECT SUM(units) FROM Claims WHERE payer = 'a'", ProtocolPM, fastParams()},
	}
	var out []wireSample
	for _, r := range runs {
		var tr transcript
		_, srcErrs, err := tap{log: &tr}.query(t, r.n, r.sql, r.proto, r.params)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		for src, err := range srcErrs {
			if err != nil {
				t.Fatalf("%s: source %s: %v", r.name, src, err)
			}
		}
		seen := map[string]bool{}
		for _, f := range tr.on("") {
			if seen[f.Type] {
				continue
			}
			seen[f.Type] = true
			payload, err := transport.Payload(f.Message)
			if err != nil {
				t.Errorf("%s: %v", r.name, err)
				continue
			}
			out = append(out, wireSample{run: r.name, typ: f.Type, payload: payload})
		}
	}
	return out
}

// gobBody is the length of v's gob encoding without type descriptors: the
// second of two encodings on one encoder, whose first already described
// the types. v is first mirrored into types without methods, so gob sees
// only the fields, and a relation.Value becomes its canonical bytes, as
// its GobEncode gave them.
func gobBody(t *testing.T, v any) int {
	t.Helper()
	m := gobMirror(reflect.ValueOf(v)).Interface()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	first := buf.Len()
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Len() - first
}

var (
	valueType = reflect.TypeOf(rel.Value{})
	timeType  = reflect.TypeOf(time.Time{})
	// basicTypes maps a basic kind to its unnamed type.
	basicTypes = map[reflect.Kind]reflect.Type{
		reflect.Bool: reflect.TypeOf(false), reflect.String: reflect.TypeOf(""),
		reflect.Int: reflect.TypeOf(0), reflect.Int64: reflect.TypeOf(int64(0)),
		reflect.Uint8: reflect.TypeOf(uint8(0)), reflect.Uint32: reflect.TypeOf(uint32(0)),
		reflect.Uint64: reflect.TypeOf(uint64(0)),
	}
)

// gobMirrorType is t with every struct but time.Time replaced by an
// unnamed struct of its exported fields, and every named basic type by
// its kind.
func gobMirrorType(t reflect.Type) reflect.Type {
	switch {
	case t == timeType:
		return t
	case t == valueType:
		return reflect.TypeOf([]byte(nil))
	case t.Kind() == reflect.Pointer:
		return reflect.PointerTo(gobMirrorType(t.Elem()))
	case t.Kind() == reflect.Slice && t.Elem().Kind() != reflect.Uint8:
		return reflect.SliceOf(gobMirrorType(t.Elem()))
	case t.Kind() == reflect.Slice:
		return reflect.TypeOf([]byte(nil))
	case t.Kind() == reflect.Struct:
		var fields []reflect.StructField
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fields = append(fields, reflect.StructField{Name: f.Name, Type: gobMirrorType(f.Type)})
			}
		}
		return reflect.StructOf(fields)
	default:
		return basicTypes[t.Kind()]
	}
}

// gobMirror converts v to gobMirrorType(v.Type()).
func gobMirror(v reflect.Value) reflect.Value {
	out := reflect.New(gobMirrorType(v.Type())).Elem()
	switch {
	case v.Type() == timeType:
		out.Set(v)
	case v.Type() == valueType:
		if val := v.Interface().(rel.Value); val.Valid() {
			out.SetBytes(val.Encode(nil))
		}
	case v.Kind() == reflect.Pointer:
		if !v.IsNil() {
			p := reflect.New(out.Type().Elem())
			p.Elem().Set(gobMirror(v.Elem()))
			out.Set(p)
		}
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() != reflect.Uint8:
		if !v.IsNil() {
			out.Set(reflect.MakeSlice(out.Type(), v.Len(), v.Len()))
			for i := 0; i < v.Len(); i++ {
				out.Index(i).Set(gobMirror(v.Index(i)))
			}
		}
	case v.Kind() == reflect.Struct:
		for i, j := 0, 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				out.Field(j).Set(gobMirror(v.Field(i)))
				j++
			}
		}
	default:
		out.Set(v.Convert(out.Type()))
	}
	return out
}

// The hand-written layout never costs more than gob did: for one message
// of every type, from real runs of every protocol, a union and an
// aggregate, its body is no longer than gob's body for the same value
// without type descriptors — the least gob can put on a link, even with
// one encoder per link. So no workload's client_bytes_per_query rises.
func TestWireNotLargerThanGob(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range sampleMessages(t) {
		seen[s.typ] = true
		v := messageDecoders[decoderFor(t, s.typ)].new()
		if err := codec.Unmarshal(s.payload, v); err != nil {
			t.Errorf("%s %s: %v", s.run, s.typ, err)
			continue
		}
		g := gobBody(t, reflect.ValueOf(v).Elem().Interface())
		t.Logf("%-14s %-18s %6d B, gob %6d B", s.run, s.typ, len(s.payload), g)
		if len(s.payload) > g {
			t.Errorf("%s %s: %d bytes, gob without descriptors %d", s.run, s.typ, len(s.payload), g)
		}
	}
	for _, d := range messageDecoders[:len(messageDecoders)-1] {
		if !seen[d.typ] {
			t.Errorf("no run sent %s", d.typ)
		}
	}
}

// allocBound is the most FuzzMessageDecode lets one decode allocate: a
// fixed allowance plus a constant per input byte. Every count is checked
// against the bytes left before anything is allocated from it, so a
// decoder's allocation is linear in its input.
func allocBound(n int) uint64 { return 64<<10 + 128*uint64(n) }

// FuzzMessageDecode feeds arbitrary payloads to every message decoder;
// the first byte selects the decoder. No input may panic or allocate
// more than allocBound, and every input a decoder accepts must re-encode
// to itself: each message has exactly one encoding.
func FuzzMessageDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || int(data[0]) >= len(messageDecoders) {
			return
		}
		d, payload := messageDecoders[data[0]], data[1:]
		v := d.new()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := codec.Unmarshal(payload, v)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > allocBound(len(payload)) {
			t.Fatalf("%s: decoding %d bytes allocated %d", d.typ, len(payload), got)
		}
		if err != nil {
			return
		}
		again, err := codec.Marshal(v.(codec.Encodable))
		if err != nil {
			t.Fatalf("%s: re-encoding an accepted payload: %v", d.typ, err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("%s: payload\n%x\nre-encodes to\n%x", d.typ, payload, again)
		}
	})
}

// rawBody is a payload that is already encoded.
type rawBody []byte

func (b rawBody) EncodeTo(e *codec.Encoder) { e.Fixed(b, len(b)) }

// hostileFrame is a typ frame of a message with one fixed-width field set
// to bad: set stores its argument in that field and returns the message.
// A bad of the field's width is encoded as is. Any other width has no
// encoding, because the field carries no length, so the frame is the
// message's encoding with bad spliced in place of the field's bytes —
// what a deviating sender can put on a link, and what its receiver must
// refuse to decode.
func hostileFrame(t *testing.T, typ string, width int, bad []byte, set func(field []byte) codec.Encodable) transport.Message {
	t.Helper()
	var v any
	if len(bad) == width {
		v = set(bad)
	} else {
		marker := bytes.Repeat([]byte{0xA5}, width)
		enc, err := codec.Marshal(set(marker))
		i := bytes.Index(enc, marker)
		if err != nil || i < 0 {
			t.Errorf("encoding %s around a %d-byte marker: %v", typ, width, err)
			return transport.Message{}
		}
		v = rawBody(append(append(append([]byte(nil), enc[:i]...), bad...), enc[i+width:]...))
	}
	m, err := transport.NewMessage(typ, v)
	if err != nil {
		t.Error(err)
	}
	return m
}

// hostileBlame is the party a query with a hostile fixed-width field
// blames: the frame's sender, named by the receiver's decoder, when the
// field does not have its width; and, when it has, the mediator, named by
// the client or source that consumes the field (stopwatch.blame). Either
// error carries no phase.
func hostileBlame(bad []byte, width int, sender string) string {
	if len(bad) != width {
		return sender
	}
	return leakage.PartyMediator
}

// Pushdown is the one flag bit of Params; a set bit beside it, such as
// the retired bit 1, does not decode.
func TestParamsUnknownFlagRejected(t *testing.T) {
	b, err := codec.Marshal(Params{Pushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	// A zero Partitions is one varint byte; the flag byte follows.
	for _, flags := range []byte{0, 1, 2, 3, 0x80} {
		b[1] = flags
		var p Params
		err := codec.Unmarshal(b, &p)
		if ok := flags <= 1; (err == nil) != ok || (ok && p.Pushdown != (flags == 1)) {
			t.Errorf("flags %#x: %+v, %v", flags, p, err)
		}
	}
}
