package table

import (
	"bufio"
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// WriteCSV serializes the table to w as CSV. The header row encodes both
// column names and kinds as "name:kind" so ReadCSV can reconstruct the
// schema without guessing. A lone empty cell is written "", not as a blank line.
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw) // buffers in bw itself, so bw's own writes fall in order
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
		if len(record) == 1 && record[0] == "" {
			bw.WriteString(`""` + "\n") // an error sticks to bw, and Flush reports it
			continue
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("table: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a table previously written by WriteCSV. Every field is parsed
// as its column's declared kind straight onto the column (empty is NULL, but
// the empty string in a string column), and a column declared null is refused:
// no cell could hold a value, and no relation has such a column. Nothing is
// allocated per line beyond what encoding/csv reads it into, and a string new
// to its column's dictionary is copied so that the dictionary does not pin
// every line it first saw a string on. An error returns no table.
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
		row := t.cols.NumRows
		for i, field := range record {
			n, f, b := int64(0), 0.0, false // a field that fails to parse appends a zero; the error drops the table
			switch c := &t.cols.Cols[i]; {
			case field == "" && c.Kind != KindString:
				c.appendNull(row)
			case c.Kind == KindInt:
				n, err = strconv.ParseInt(field, 10, 64)
				c.appendInt(row, n)
			case c.Kind == KindFloat:
				f, err = strconv.ParseFloat(field, 64)
				c.appendFloat(row, f)
			case c.Kind == KindBool:
				b, err = strconv.ParseBool(field)
				c.appendBool(row, b)
			default:
				c.appendString(row, field, true)
			}
			if err != nil {
				return nil, fmt.Errorf("table: csv line %d col %s: table: parse %s %q: %w", lineNo, schema[i].Name, schema[i].Kind, field, err)
			}
		}
		t.cols.NumRows++
	}
	return t, nil
}

// ReadCSVDir loads every regular *.csv file of dir as the table its base name
// gives, reading the files concurrently: at most GOMAXPROCS at once, largest
// first. It adds the tables in name order and returns the first failing file's
// error in name order, as reading them one by one would. Errors name the file
// (ReadCSV adds line and column), and two files whose names fold to the same
// table are refused: Database.Add would silently replace the first.
func ReadCSVDir(dir string) (*Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type load struct {
		path, name string
		size       int64
		t          *Table
		err        error
	}
	var loads []*load // name order: ReadDir sorts
	for _, e := range entries {
		name, isCSV := strings.CutSuffix(e.Name(), ".csv")
		if !isCSV {
			continue
		}
		path := filepath.Join(dir, e.Name())
		switch info, err := os.Stat(path); { // a symlink counts as what it points to
		case err != nil:
			return nil, err
		case info.Mode().IsRegular():
			loads = append(loads, &load{path: path, name: name, size: info.Size()})
		}
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("no CSV files in %s", dir)
	}
	bySize := slices.Clone(loads)
	slices.SortStableFunc(bySize, func(a, b *load) int { return cmp.Compare(b.size, a.size) })
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, l := range bySize {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-slots; wg.Done() }()
			f, err := os.Open(l.path)
			if err != nil {
				l.err = err
				return
			}
			defer f.Close() // read only: nothing to lose
			if l.t, err = ReadCSV(l.name, bufio.NewReader(f)); err != nil {
				l.err = fmt.Errorf("%s: %w", l.path, err)
			}
		}()
	}
	wg.Wait()
	db := NewDatabase()
	for _, l := range loads {
		if prev := db.Table(l.name); prev != nil {
			return nil, fmt.Errorf("%s: table %s was already loaded from %s.csv", l.path, l.name, prev.Name)
		}
		if l.err != nil {
			return nil, l.err
		}
		db.Add(l.t)
	}
	return db, nil
}
