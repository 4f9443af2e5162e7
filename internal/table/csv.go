package table

import (
	"bufio"
	"bytes"
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
// schema without guessing. A lone empty cell is written "", not as a blank line,
// and a \r\n inside a value or a column name as \r\r\n: encoding/csv reads a
// \r\n that ends a line as \n, inside a quoted field too, so that is what reads
// back as \r\n.
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw) // buffers in bw itself, so bw's own writes fall in order
	header := make([]string, len(t.Schema))
	for i, c := range t.Schema {
		header[i] = strings.ReplaceAll(c.Name, "\r\n", "\r\r\n") + ":" + c.Kind.String()
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("table: write csv header: %w", err)
	}
	record := make([]string, len(t.Schema))
	for r := 0; r < t.NumRows(); r++ {
		for i := range record {
			record[i] = strings.ReplaceAll(t.Cell(r, i).String(), "\r\n", "\r\r\n")
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
// no cell could hold a value, and no relation has such a column. It reads all
// of r into memory (io.ReadAll, so the file's bytes and the columns are live at
// once) and parses the bytes where they lie (parseCSV), copying a string only
// when it is new to its column's dictionary, so that the dictionary does not
// pin the file. An error returns no table.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("table: read csv: %w", err)
	}
	return parseCSV(name, data)
}

// parseCSV is ReadCSV over a whole file's bytes: scanCSV loads every file it
// can read, and decodeCSV the rest, or words why they do not load.
func parseCSV(name string, data []byte) (*Table, error) {
	if t := scanCSV(name, data); t != nil {
		return t, nil
	}
	return decodeCSV(name, bytes.NewReader(data))
}

// parseHeader is the schema a header record declares: "name:kind" per field.
func parseHeader(header []string) (Schema, error) {
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
	return schema, nil
}

// decodeCSV loads a file through encoding/csv, record by record: the files
// scanCSV declines. It loads those encoding/csv reads (quoted fields, \r\n line
// ends) and words every rejection with its line, column and cause.
func decodeCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: read csv header: %w", err)
	}
	schema, err := parseHeader(header)
	if err != nil {
		return nil, err
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
		for i, field := range record {
			if err := t.cols.Cols[i].appendField(t.cols.NumRows, []byte(field)); err != nil {
				return nil, fmt.Errorf("table: csv line %d col %s: table: parse %s %q: %w", lineNo, schema[i].Name, schema[i].Kind, field, err)
			}
		}
		t.cols.NumRows++
	}
	return t, nil
}

// scanCSV loads data as decodeCSV would, straight from its bytes, allocating
// nothing per line or per cell: fields split with bytes.IndexByte, numbers
// parsed from them without a copy, a string looked up in its dictionary without
// one, and each vector sized once from the newline count. It reads only a file
// with no '"' and no '\r' anywhere — unquoted fields, \n line ends, blank lines
// skipped, as encoding/csv reads them with FieldsPerRecord -1 — and returns
// nil, leaving the file to decodeCSV, on anything else: a quote or a \r, a
// record whose width is not the header's, a field its column's kind does not
// parse, or a header decodeCSV refuses.
func scanCSV(name string, data []byte) *Table {
	if bytes.IndexByte(data, '"') >= 0 || bytes.IndexByte(data, '\r') >= 0 {
		return nil
	}
	s := csvScanner{data: data, nl: -1}
	var header []string
	for last := !s.record(); !last; {
		f, end := s.field()
		header, last = append(header, string(f)), end
	}
	if header == nil {
		return nil
	}
	schema, err := parseHeader(header)
	if err != nil {
		return nil
	}
	t := New(name, schema)
	cols := t.cols.Cols
	// A record takes a line, and at least a byte a field.
	rest := data[min(s.pos, len(data)):]
	rows := min(bytes.Count(rest, []byte("\n")), len(rest)/len(cols)) + 1
	for i := range cols {
		cols[i].reserve(rows)
	}
	for row := 0; s.record(); row++ {
		for i := range cols {
			f, last := s.field()
			if last != (i == len(cols)-1) || cols[i].appendField(row, f) != nil {
				return nil
			}
		}
		t.cols.NumRows++
	}
	return t
}

// reserve sizes the column's vector and zones for n cells.
func (c *ColumnData) reserve(n int) {
	switch c.Kind {
	case KindInt:
		c.Ints = make([]int64, 0, n)
	case KindFloat:
		c.Floats = make([]float64, 0, n)
	case KindBool:
		c.Bools = make([]bool, 0, n)
	case KindString:
		c.Codes = make([]int32, 0, n)
	}
	c.Zones = make([]Zone, 0, (n+ZoneChunkRows-1)/ZoneChunkRows)
}

// appendField parses f as the column's kind and appends it as cell i, or
// returns strconv's error. f is not kept: a new string is copied into the
// dictionary. A field that fails to parse leaves the column short; the caller
// drops the table.
func (c *ColumnData) appendField(i int, f []byte) error {
	if len(f) == 0 && c.Kind != KindString {
		c.appendNull(i)
		return nil
	}
	switch c.Kind {
	case KindInt:
		n, err := parseInt(f)
		if err != nil {
			return err
		}
		c.appendInt(i, n)
	case KindFloat:
		x, err := strconv.ParseFloat(string(f), 64)
		if err != nil {
			return err
		}
		c.appendFloat(i, x)
	case KindBool:
		b, err := strconv.ParseBool(string(f))
		if err != nil {
			return err
		}
		c.appendBool(i, b)
	default:
		c.appendString(i, c.Dict.addBytes(f))
	}
	return nil
}

// parseInt is strconv.ParseInt(string(b), 10, 64), reading inline what cannot
// overflow: an optional sign and at most 18 digits.
func parseInt(b []byte) (int64, error) {
	digits := b
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		digits = b[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var n int64
	for _, c := range digits {
		if c-'0' > 9 {
			return strconv.ParseInt(string(b), 10, 64) // its error
		}
		n = n*10 + int64(c-'0')
	}
	if b[0] == '-' {
		n = -n
	}
	return n, nil
}

// csvScanner walks the bytes of a CSV file without quotes or \r, field by
// field. nl caches the next '\n' at or after an earlier pos (len(data) when
// there is none), so the file is searched for each '\n' once.
type csvScanner struct {
	data    []byte
	pos, nl int
}

// record skips blank lines and reports whether a record starts at pos.
func (s *csvScanner) record() bool {
	for s.pos < len(s.data) && s.data[s.pos] == '\n' {
		s.pos++
	}
	return s.pos < len(s.data)
}

// field returns the field at pos and whether it ends its record, and moves pos
// past it and its separator.
func (s *csvScanner) field() (f []byte, last bool) {
	data, p := s.data, s.pos
	if s.nl < p {
		if i := bytes.IndexByte(data[p:], '\n'); i >= 0 {
			s.nl = p + i
		} else {
			s.nl = len(data)
		}
	}
	end := s.nl
	if i := bytes.IndexByte(data[p:end], ','); i >= 0 {
		end = p + i
	} else {
		last = true
	}
	s.pos = end + 1
	return data[p:end], last
}

// ReadCSVDir loads every regular *.csv file of dir as the table its base name
// gives, reading the files concurrently, each whole (os.ReadFile) into
// parseCSV: at most GOMAXPROCS at once, largest first. A file's bytes stay in
// memory until its table is built, so the load's peak holds the columns plus up
// to GOMAXPROCS files. It adds the tables in name order and returns the first
// failing file's error in name order, as reading them one by one would. Errors
// name the file (ReadCSV adds line and column), and two files whose names fold
// to the same table are refused: Database.Add would silently replace the first.
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
			data, err := os.ReadFile(l.path)
			if err != nil {
				l.err = err
				return
			}
			if l.t, err = parseCSV(l.name, data); err != nil {
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
