package mediation

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/secmediation/secmediation/internal/algebra"
	"github.com/secmediation/secmediation/internal/codec"
	"github.com/secmediation/secmediation/internal/credential"
	"github.com/secmediation/secmediation/internal/leakage"
	"github.com/secmediation/secmediation/internal/mediation/link"
	rel "github.com/secmediation/secmediation/internal/relation"
	"github.com/secmediation/secmediation/internal/resilience"
	"github.com/secmediation/secmediation/internal/transport"
)

// A mediator that rewrites what it relays gets the exact join, or an
// error that names it. For each run below, one clean query is recorded
// through the link tap. Then, for every frame the mediator sent on every
// link, every field path of the decoded frame and every mutation class
// that applies there (see enumerate), the query runs again with that
// frame rewritten and re-sealed by transport.NewMessage, as a deviating
// mediator can. Each rewritten run must:
//
//   - return rows only under the query's schema, and none outside the
//     clean run's result;
//   - with no error, return a sub-multiset of that result: withholding
//     is outside the model (docs/SECURITY.md, "Not defended") and is
//     logged, not failed;
//   - end any error in a terminal *ProtocolError;
//   - name the mediator at every honest party that detects the deviation:
//     the client, and each source in its Serve error. An abort the
//     mediator relayed is its own word and is not checked.
//
// A failure prints the run, the link, the message type, the field path
// and the mutation. Under -short every rewriteShortStride-th row runs.
func TestMediatorRewrites(t *testing.T) {
	params := fastParams()
	// A hang fails the row instead of blocking the suite.
	params.Timeout = 10 * time.Second
	for _, run := range rewriteRuns() {
		run := run
		t.Run(run.name, func(t *testing.T) {
			n := run.net(t)
			var tr transcript
			want, srcErrs, err := tap{log: &tr}.query(t, n, run.sql, run.proto, params)
			for src, serr := range srcErrs {
				if serr != nil {
					err = fmt.Errorf("source %s: %w", src, serr)
				}
			}
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			if run.sql == fixtureSQL && !want.EqualMultiset(expectedJoin(t)) {
				t.Fatalf("clean run returned\n%v\nwant\n%v", want, expectedJoin(t))
			}
			rows := rewriteRows(t, tr.on(""), columnNames(n))
			outcomes := map[string]int{}
			for i, row := range rows {
				if testing.Short() && i%rewriteShortStride != 0 {
					continue
				}
				got, srcErrs, err := tap{onSend: row.hook(t)}.query(t, n, run.sql, run.proto, params)
				outcome, problems := judgeRewrite(row, want, got, srcErrs, err)
				outcomes[outcome]++
				if outcome == "withheld" {
					t.Logf("%s: withheld, %d of %d rows", row, got.Len(), want.Len())
				}
				for _, p := range problems {
					t.Errorf("%s: %s", row, p)
				}
			}
			t.Logf("%d rows: %v", len(rows), outcomes)
		})
	}
}

// rewriteShortStride thins the rows under -short.
const rewriteShortStride = 7

// rewriteRun is one query the property rewrites.
type rewriteRun struct {
	name  string
	net   func(*testing.T) *Network
	sql   string
	proto Protocol
}

// rewriteRuns are the four joins on the standard fixture, a union whose
// first two columns share a kind, and an aggregate.
func rewriteRuns() []rewriteRun {
	join := func(t *testing.T) *Network { return newTestNetwork(t, nil) }
	union := func(t *testing.T) *Network {
		schema := rel.MustSchema("A", rel.Column{Name: "x", Kind: rel.KindString},
			rel.Column{Name: "y", Kind: rel.KindString}, rel.Column{Name: "k", Kind: rel.KindInt})
		row := func(x, y string, k int64) rel.Tuple { return rel.Tuple{rel.String_(x), rel.String_(y), rel.Int(k)} }
		return unionNetwork(t, rel.MustFromTuples(schema, row("p", "q", 1), row("r", "s", 2)),
			rel.MustFromTuples(schema.Rename("B"), row("r", "s", 2), row("t", "u", 3)))
	}
	agg := func(t *testing.T) *Network { return aggNetwork(t, nil) }
	return []rewriteRun{
		{"das", join, fixtureSQL, ProtocolDAS},
		{"commutative", join, fixtureSQL, ProtocolCommutative},
		{"pm", join, fixtureSQL, ProtocolPM},
		{"mobile-code", join, fixtureSQL, ProtocolMobileCode},
		{"union", union, "SELECT * FROM A UNION ALL SELECT * FROM B", ProtocolMobileCode},
		{"aggregate", agg, "SELECT SUM(units) FROM Claims WHERE payer = 'a'", ProtocolMobileCode},
	}
}

// unionNetwork serves a as A at source SA and b as B at source SB.
func unionNetwork(t *testing.T, a, b *rel.Relation) *Network {
	t.Helper()
	f := getFixture(t)
	src := func(name, relName string, r *rel.Relation) *Source {
		return &Source{Name: name, Catalog: algebra.MapCatalog{relName: r},
			Policies: map[string]*credential.Policy{relName: policyFor(relName)}, TrustedCAs: []*rsa.PublicKey{f.ca.PublicKey()}}
	}
	n, err := NewNetwork(f.client, &Mediator{}, src("SA", "A", a), src("SB", "B", b))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// columnNames lists every column name of n's relations, sorted.
func columnNames(n *Network) []string {
	seen := map[string]bool{}
	for _, src := range n.Sources {
		for _, r := range src.Catalog {
			for _, c := range r.Schema().Columns {
				seen[c.Name] = true
			}
		}
	}
	var out []string
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// judgeRewrite holds one rewritten run to the property. It returns the
// run's outcome, for the log, and what it breaks.
func judgeRewrite(row rewriteRow, want, got *rel.Relation, srcErrs map[string]error, err error) (string, []string) {
	var problems []string
	if got != nil && got.Len() > 0 {
		if !got.Schema().Equal(want.Schema()) {
			problems = append(problems, fmt.Sprintf("rows under the schema %v, want %v", got.Schema(), want.Schema()))
		}
		if extra := beyond(got, want); len(extra) > 0 {
			problems = append(problems, fmt.Sprintf("rows outside the result: %v", extra))
		}
	}
	outcome := "exact"
	var pe *ProtocolError
	switch {
	case err == nil && got.Len() < want.Len():
		outcome = "withheld"
	case err == nil:
	case !errors.As(err, &pe):
		problems = append(problems, fmt.Sprintf("untyped error: %v", err))
	case resilience.Retryable(err):
		problems = append(problems, fmt.Sprintf("retryable error: %v", err))
	case link.Relayed(err):
		outcome = "relayed abort"
	case pe.Party != leakage.PartyMediator:
		problems = append(problems, fmt.Sprintf("the client blames %s: %v", pe.Party, err))
	default:
		outcome = "client names the mediator"
	}
	// A source evaluates an aggregate's function and column as its
	// partial query names them, and cannot tell a rewritten one from one
	// the client's query named: folding fails at the source, as its own
	// error (executePartial, TestRelayedSourceError).
	folded := strings.HasPrefix(row.path.String(), "Aggregate.")
	for src, err := range srcErrs {
		if err != nil && !link.Relayed(err) && !folded && (!errors.As(err, &pe) || pe.Party != leakage.PartyMediator) {
			problems = append(problems, fmt.Sprintf("source %s blames other than the mediator: %v", src, err))
		}
	}
	return outcome, problems
}

// beyond returns the rows of got that want does not hold as often.
func beyond(got, want *rel.Relation) []rel.Tuple {
	count := map[string]int{}
	for _, tu := range want.Tuples() {
		count[fmt.Sprint(tu)]++
	}
	var extra []rel.Tuple
	for _, tu := range got.Tuples() {
		if count[fmt.Sprint(tu)]--; count[fmt.Sprint(tu)] < 0 {
			extra = append(extra, tu)
		}
	}
	return extra
}

// rewriteRow is one row of the property: mut applied at path in the
// frame of type typ the mediator sends on link (one a query). A row with
// no type rewrites every frame it sends on link.
type rewriteRow struct {
	link, typ string
	path      fieldPath
	mut       mutation
}

func (r rewriteRow) String() string {
	typ := r.typ
	if typ == "" {
		typ = "every frame"
	}
	return fmt.Sprintf("%s %s %s: %s", r.link, typ, r.path, r.mut.name)
}

// fieldPath addresses a value inside a decoded message: a step is a
// struct field, a list element, or (index −1) what a pointer points to.
type fieldPath []step

type step struct {
	name  string
	index int
}

func (p fieldPath) with(name string, index int) fieldPath {
	return append(append(fieldPath(nil), p...), step{name, index})
}

func (p fieldPath) String() string {
	var b strings.Builder
	for _, s := range p {
		if s.index < 0 {
			continue
		}
		if strings.HasPrefix(s.name, "[") {
			b.WriteString(s.name)
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('.')
		}
		b.WriteString(s.name)
	}
	if b.Len() == 0 {
		return "(message)"
	}
	return b.String()
}

func (p fieldPath) resolve(v reflect.Value) reflect.Value {
	for _, s := range p {
		switch {
		case s.index < 0:
			v = v.Elem()
		case v.Kind() == reflect.Struct:
			v = v.Field(s.index)
		default:
			v = v.Index(s.index)
		}
	}
	return v
}

// mutation is one rewrite of the value at a path: edit changes it in
// place, or, for a fixed-width field given bytes of another width,
// splice replaces the field's bytes in the encoding, which is the one
// way to put them on a link (hostileFrame).
type mutation struct {
	name   string
	edit   func(v reflect.Value)
	splice []byte
}

// hook returns the tap hook that applies r.
func (r rewriteRow) hook(t *testing.T) hook {
	return func(l string, m transport.Message) transport.Message {
		if l != r.link || (r.typ != "" && m.Type != r.typ) || !hasDecoder(m.Type) {
			return m
		}
		out, err := r.apply(t, m)
		if err != nil {
			t.Errorf("%s: %v", r, err)
			return m
		}
		return out
	}
}

func hasDecoder(typ string) bool {
	for _, d := range messageDecoders {
		if d.typ == typ {
			return true
		}
	}
	return false
}

// apply decodes m, applies r's mutation and re-seals the frame. It
// fails when the codec cannot encode the rewritten message.
func (r rewriteRow) apply(t *testing.T, m transport.Message) (transport.Message, error) {
	t.Helper()
	v := messageDecoders[decoderFor(t, m.Type)].new()
	decodeBody(t, m, v)
	leaf := r.path.resolve(reflect.ValueOf(v).Elem())
	body := v.(codec.Encodable)
	if r.mut.splice != nil {
		return hostileFrame(t, m.Type, leaf.Len(), r.mut.splice, func(field []byte) codec.Encodable {
			leaf.SetBytes(field)
			return body
		}), nil
	}
	r.mut.edit(leaf)
	return transport.NewMessage(m.Type, body)
}

// rewriteRows enumerates the rows of a clean run's frames: for each
// frame the mediator sent, every mutation of every field path that
// encodes and changes the frame, and for each link whose frames carry
// two sides, one row that swaps every side of every frame on it.
func rewriteRows(t *testing.T, frames []frame, columns []string) []rewriteRow {
	t.Helper()
	var rows []rewriteRow
	var sided []string
	for _, f := range frames {
		if f.dir != "send" || !hasDecoder(f.Type) {
			continue
		}
		seen := map[string]bool{string(f.Body): true}
		add := func(path fieldPath, mut mutation) {
			row := rewriteRow{link: f.link, typ: f.Type, path: path, mut: mut}
			out, err := row.apply(t, f.Message)
			if err != nil || seen[string(out.Body)] {
				return // not encodable, or no rewrite at all
			}
			seen[string(out.Body)] = true
			rows = append(rows, row)
		}
		out, err := (rewriteRow{mut: mutation{edit: swapSides}}).apply(t, f.Message)
		if err == nil && !bytes.Equal(out.Body, f.Body) && !slices.Contains(sided, f.link) {
			sided = append(sided, f.link)
		}
		v := messageDecoders[decoderFor(t, f.Type)].new()
		decodeBody(t, f.Message, v)
		enumerate(v.(codec.Encodable), reflect.ValueOf(v).Elem(), nil, columns, add)
	}
	// First, so that -short runs the first of them too.
	var first []rewriteRow
	for _, l := range sided {
		first = append(first, rewriteRow{link: l, mut: mutation{name: "swap every side", edit: swapSides}})
	}
	return append(first, rows...)
}

// enumerate calls add with every mutation of v, at path in msg, and of
// every value inside it. The classes:
//
//   - a list: drop its first or last element, duplicate its first, swap
//     its first and last; swap one field between its first two elements;
//   - a message's two paired sides (X1 and X2): swap them;
//   - a pointer: drop what it points to;
//   - an integer: ±1, 0, −1, and one past the bound a party checks it
//     against (pastBound), or else 2⁴⁰;
//   - a string: append to it, empty it, and for a column name, every
//     other column name of the run's relations;
//   - a bool: flip it;
//   - a blob: flip its last byte, or empty it; a fixed-width one (it
//     does not encode at another width) also resized by ±1 byte, all
//     0xFF, an off-curve x, and the identity's one-byte encoding.
func enumerate(msg codec.Encodable, v reflect.Value, path fieldPath, columns []string, add func(fieldPath, mutation)) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.CanSet() {
			add(path, mutation{name: "drop", edit: func(v reflect.Value) { v.Set(reflect.Zero(v.Type())) }})
		}
		enumerate(msg, v.Elem(), path.with("*", -1), columns, add)
	case reflect.Struct:
		tp := v.Type()
		for i := 0; i < tp.NumField(); i++ {
			if !tp.Field(i).IsExported() {
				continue
			}
			enumerate(msg, v.Field(i), path.with(tp.Field(i).Name, i), columns, add)
			if j, ok := otherSide(tp, i); ok {
				i := i
				add(path, mutation{name: "swap " + tp.Field(i).Name + " and " + tp.Field(j).Name,
					edit: func(v reflect.Value) { swapValues(v.Field(i), v.Field(j)) }})
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			enumerateBlob(msg, v, path, add)
			return
		}
		enumerateList(v, path, add)
		if v.Len() > 0 {
			enumerate(msg, v.Index(0), path.with("[0]", 0), columns, add)
		}
	case reflect.String:
		s := v.String()
		add(path, setTo("append", reflect.ValueOf(s+"x")))
		add(path, setTo("empty", reflect.ValueOf("")))
		if b, ok := pastBound[path.String()]; ok {
			add(path, setTo("past the bound", reflect.ValueOf(b)))
		}
		for _, c := range columns {
			if c != s && slices.Contains(columns, s) {
				add(path, setTo("column "+c, reflect.ValueOf(c)))
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		var cur int64
		if v.CanInt() {
			cur = v.Int()
		} else {
			cur = int64(v.Uint())
		}
		large := int64(1) << 40
		if b, ok := pastBound[path.String()]; ok {
			large = int64(b.(int))
		}
		for _, m := range []struct {
			name string
			to   int64
		}{{"+1", cur + 1}, {"-1", cur - 1}, {"0", 0}, {"negative", -1}, {"large", large}} {
			to := m.to
			add(path, mutation{name: m.name, edit: func(v reflect.Value) {
				if v.CanInt() {
					v.SetInt(to)
				} else {
					v.SetUint(uint64(to))
				}
			}})
		}
	case reflect.Bool:
		add(path, mutation{name: "flip", edit: func(v reflect.Value) { v.SetBool(!v.Bool()) }})
	}
}

// pastBound holds, per Params field a party bounds (Params.check), the
// first value past that bound.
var pastBound = map[string]any{
	"Params.Partitions": maxPartitions + 1,
	"Params.QueryID":    strings.Repeat("q", maxQueryIDLen+1),
}

// setTo is the mutation that sets a value to to.
func setTo(name string, to reflect.Value) mutation {
	return mutation{name: name, edit: func(v reflect.Value) { v.Set(to.Convert(v.Type())) }}
}

// enumerateList adds the list mutations of v.
func enumerateList(v reflect.Value, path fieldPath, add func(fieldPath, mutation)) {
	n := v.Len()
	if n == 0 {
		return
	}
	keep := func(name string, idx ...int) {
		add(path, mutation{name: name, edit: func(v reflect.Value) {
			out := reflect.MakeSlice(v.Type(), len(idx), len(idx))
			for k, i := range idx {
				out.Index(k).Set(v.Index(i))
			}
			v.Set(out)
		}})
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	keep("drop first", all[1:]...)
	keep("drop last", all[:n-1]...)
	keep("duplicate first", append(append([]int(nil), all...), 0)...)
	if n < 2 {
		return
	}
	swapped := append([]int(nil), all...)
	swapped[0], swapped[n-1] = n-1, 0
	keep("swap first and last", swapped...)
	if v.Type().Elem().Kind() != reflect.Struct {
		return
	}
	for j := 0; j < v.Type().Elem().NumField(); j++ {
		j := j
		name := v.Type().Elem().Field(j).Name
		add(path, mutation{name: "swap " + name + " of [0] and [1]", edit: func(v reflect.Value) {
			swapValues(v.Index(0).Field(j), v.Index(1).Field(j))
		}})
	}
}

// enumerateBlob adds the blob mutations of v.
func enumerateBlob(msg codec.Encodable, v reflect.Value, path fieldPath, add func(fieldPath, mutation)) {
	b := v.Bytes()
	if len(b) > 0 {
		add(path, setTo("flip last byte", reflect.ValueOf(append(append([]byte(nil), b[:len(b)-1]...), b[len(b)-1]^0xFF))))
	}
	// A field the codec writes bare does not encode at another width.
	v.SetBytes(append(append([]byte(nil), b...), 0))
	_, err := codec.Marshal(msg)
	v.SetBytes(b)
	if err == nil {
		add(path, setTo("empty", reflect.ValueOf([]byte{})))
		return
	}
	w := len(b)
	for _, s := range []struct {
		name string
		to   []byte
	}{
		{"empty", []byte{}},
		{"one byte short", make([]byte, w-1)},
		{"one byte long", make([]byte, w+1)},
		{"identity", []byte{0}},
	} {
		add(path, mutation{name: s.name, splice: s.to})
	}
	add(path, setTo("all 0xFF", reflect.ValueOf(bytes.Repeat([]byte{0xFF}, w))))
	add(path, setTo("off-curve x", reflect.ValueOf(offCurve(w))))
}

// offCurve is a width-w field whose x = 1, which is on no P-256 point
// (1 − 3 + b is not a square mod p): one 32-byte x, or compressed
// 33-byte points back to back.
func offCurve(w int) []byte {
	if w%33 != 0 {
		out := make([]byte, w)
		out[w-1] = 1
		return out
	}
	out := make([]byte, 0, w)
	for len(out) < w {
		p := make([]byte, 33)
		p[0], p[32] = 2, 1
		out = append(out, p...)
	}
	return out
}

// otherSide returns the field X2 paired with field i of tp when field i
// is X1 and of the same type: the two sides of a message.
func otherSide(tp reflect.Type, i int) (int, bool) {
	f := tp.Field(i)
	other, ok := tp.FieldByName(strings.TrimSuffix(f.Name, "1") + "2")
	if !ok || !strings.HasSuffix(f.Name, "1") || other.Type != f.Type {
		return 0, false
	}
	return other.Index[0], true
}

func swapValues(a, b reflect.Value) {
	tmp := reflect.New(a.Type()).Elem()
	tmp.Set(a)
	a.Set(b)
	b.Set(tmp)
}

// swapSides swaps every pair of sides (fields X1 and X2) in v and in
// everything v holds.
func swapSides(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			swapSides(v.Elem())
		}
	case reflect.Struct:
		tp := v.Type()
		for i := 0; i < tp.NumField(); i++ {
			if !tp.Field(i).IsExported() {
				continue
			}
			swapSides(v.Field(i))
			if j, ok := otherSide(tp, i); ok {
				swapValues(v.Field(i), v.Field(j))
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return
		}
		for i := 0; i < v.Len(); i++ {
			swapSides(v.Index(i))
		}
	}
}
