package table

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// WriteCSV serializes the table to w as CSV. The header row encodes both
// column names and kinds as "name:kind" so ReadCSV can reconstruct the
// schema without guessing.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Schema))
	for i, c := range t.Schema {
		header[i] = c.Name + ":" + c.Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("table: write csv header: %w", err)
	}
	record := make([]string, len(t.Schema))
	for r := 0; r < t.NumRows(); r++ {
		for i := range record {
			record[i] = t.Cell(r, i).String()
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("table: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table previously written by WriteCSV. Every field is parsed
// as its column's declared kind (empty is NULL), and a column declared null is
// refused: no cell could hold a value, and no relation has such a column.
// Nothing is allocated per line beyond what encoding/csv reads it into, and a
// string new to its column's dictionary is copied so that the dictionary does
// not pin every line it first saw a string on.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: read csv header: %w", err)
	}
	schema := make(Schema, len(header))
	for i, h := range header {
		name, kindName, found := strings.Cut(h, ":")
		if !found {
			return nil, fmt.Errorf("table: csv header field %q missing kind", h)
		}
		kind, err := ParseKind(kindName)
		if err != nil {
			return nil, err
		}
		if kind == KindNull {
			return nil, fmt.Errorf("table: csv line 1 col %s: declared null, a kind no value has", name)
		}
		schema[i] = Column{Name: name, Kind: kind}
	}
	t := New(name, schema)
	row := make(Row, len(schema))
	for lineNo := 2; ; lineNo++ {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table: read csv line %d: %w", lineNo, err)
		}
		if len(record) != len(schema) {
			return nil, fmt.Errorf("table: csv line %d has %d fields, want %d", lineNo, len(record), len(schema))
		}
		for i, field := range record {
			if dict := t.cols.Cols[i].Dict; dict != nil {
				if _, known := dict.Code(field); !known {
					field = strings.Clone(field)
				}
			}
			v, err := ParseValue(field, schema[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("table: csv line %d col %s: %w", lineNo, schema[i].Name, err)
			}
			row[i] = v
		}
		t.AppendRow(row)
	}
	return t, nil
}

// ReadCSVDir loads every *.csv file of dir, in name order, as the table its
// base name gives. Errors name the file (ReadCSV adds line and column), and two
// files whose names fold to the same table are refused: Database.Add would
// silently replace the first with the second.
func ReadCSVDir(dir string) (*Database, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no CSV files in %s", dir)
	}
	db := NewDatabase()
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".csv")
		if prev := db.Table(name); prev != nil {
			return nil, fmt.Errorf("%s: table %s was already loaded from %s.csv", path, name, prev.Name)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		t, err := ReadCSV(name, bufio.NewReader(f))
		f.Close() // read only: nothing to lose
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		db.Add(t)
	}
	return db, nil
}
