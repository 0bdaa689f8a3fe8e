package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// ReadCSV loads a relation from CSV. The first record must be a header of
// the form "name:TYPE" per column (e.g. "id:INT,name:TEXT"); subsequent
// records are parsed against the declared types. relName names the loaded
// relation.
func ReadCSV(relName string, r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read csv header: %w", err)
	}
	cols := make([]Column, len(header))
	for i, h := range header {
		name, typ, ok := strings.Cut(h, ":")
		if !ok {
			return nil, fmt.Errorf("relation: csv header field %q: want name:TYPE", h)
		}
		k, err := ParseKind(typ)
		if err != nil {
			return nil, err
		}
		cols[i] = Column{Name: strings.TrimSpace(name), Kind: k}
	}
	schema, err := NewSchema(relName, cols...)
	if err != nil {
		return nil, err
	}
	rel := New(schema)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: read csv line %d: %w", line, err)
		}
		if len(rec) != len(cols) {
			return nil, fmt.Errorf("relation: csv line %d: %d fields, want %d", line, len(rec), len(cols))
		}
		t := make(Tuple, len(cols))
		for i, f := range rec {
			v, err := Parse(cols[i].Kind, f)
			if err != nil {
				return nil, fmt.Errorf("relation: csv line %d: %w", line, err)
			}
			t[i] = v
		}
		rel.tuples = append(rel.tuples, t)
	}
	return rel, nil
}

// WriteCSV writes the relation in the format ReadCSV accepts.
func WriteCSV(r *Relation, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, r.schema.Arity())
	for i, c := range r.schema.Columns {
		header[i] = c.Name + ":" + c.Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("relation: write csv header: %w", err)
	}
	row := make([]string, r.schema.Arity())
	for _, t := range r.tuples {
		for i, v := range t {
			row[i] = v.String()
		}
		if len(row) == 1 && row[0] == "" {
			// csv.Writer writes a lone empty field as an empty line,
			// which every reader skips: quote it so the row survives.
			cw.Flush()
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return fmt.Errorf("relation: write csv row: %w", err)
			}
			continue
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("relation: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
