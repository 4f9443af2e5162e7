package table

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// ParseValue parses s as the given kind. The empty string parses to NULL for
// every kind except KindString. It is the reference loader's field parser.
func ParseValue(s string, k Kind) (Value, error) {
	if s == "" && k != KindString {
		return Null, nil
	}
	switch k {
	case KindInt:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("table: parse int %q: %w", s, err)
		}
		return NewInt(n), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null, fmt.Errorf("table: parse float %q: %w", s, err)
		}
		return NewFloat(f), nil
	case KindString:
		return NewString(s), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null, fmt.Errorf("table: parse bool %q: %w", s, err)
		}
		return NewBool(b), nil
	case KindNull:
		return Null, nil
	default:
		return Null, fmt.Errorf("table: parse: unknown kind %v", k)
	}
}

// refReadCSV is the loader ReadCSV replaced, kept as its reference: every
// record through encoding/csv, every field through ParseValue into one scratch
// Row, every row through AppendRow.
func refReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
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

// FuzzReadCSV holds ReadCSV to the reference loader on any bytes — the same
// columns, dictionary order included, or the same error — and so does
// decodeCSV alone, the path ReadCSV takes where scanCSV declines. It holds what
// loads to a fixed point: WriteCSV then ReadCSV gives the same columns, and
// writing those again gives the same bytes.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"id\n1\n", "id:widget\n1\n", "id:int\nnot_a_number\n", "id:int,name:string\n1\n",
		"id:int,name:string\n1,\"a, b\"\n2,\"two\nlines\"\n3,\"say \"\"hi\"\"\"\n4,a\n",
		"f:float\nNaN\n+Inf\n-Inf\n-0\n0\n1e308\n",
		"i:int,f:float,s:string,b:bool\n,,,\n1,2.5,x,true\n,,,\n",
		"s:string\n\"\"\n", "i:int\n\"\"\n3\n", "b:bool\nT\n0\nFALSE\n\"\"\n",
		"i:int,s:string\n",
		"i:int,s:string\r\n1,a\r\n2,b\r\n",
		"i:int,junk:null\n1,\n",
		"i:int\n9223372036854775808\n", "b:bool\nyes\n", "f:float\n1.2.3\n",
		"s:text,i:INTEGER\nb,1\na,2\nb,3\n",
		// Each rejection on the last line of an otherwise plain file.
		"i:int,s:string\n1,a\n2,b\n3,c\"d\n", "i:int,s:string\n1,a\n2,b\n3,\"cd\n",
		"i:int,s:string\n1,a\n2,b\n3,c\rd\n", "i:int,s:string\n1,a\n2,b\n3,c,d\n",
		"i:int,s:string\n1,a\n2,b\n9223372036854775808,c\n", "i:int,s:string\n1,a\n2,b\n 1,c\n",
		"i:int,s:string\n1,a\n2,b\n3,\"c\"d\n", "i:int,s:string\n1,a\r\n2,b\r",
		// No final newline, an empty last field, blank lines; then \r\n line ends
		// and quoted fields, which scanCSV leaves to decodeCSV.
		"i:int,s:string\n1,a\n2,b", "i:int,s:string\n1,a\n2,", "i:int,s:string\n\n1,a\n\n2,b\n\n",
		"i:int,s:string\n\n1,a\n\n\r\n2,b\n\n",
		"i:int,s:string\r\n1,\"a\r\nb\"\r\n2,\"\"\r\n",
		"i:int,s:string,f:float\n1,a,0.5\n2,\"x, \"\"y\"\"\nz\",1e3\n3,a,\n",
		// A value and a column name holding \r\n, which WriteCSV must write so
		// that they read back.
		":int,:string\n,\"\r\r\n\"", "\"\r\r\n:int\"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, refErr := refReadCSV("f", bytes.NewReader(data))
		decoded, err := decodeCSV("f", bytes.NewReader(data))
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("decodeCSV error %v, reference %v", err, refErr)
		}
		if err == nil {
			sameTable(t, decoded, want)
		}
		got, err := ReadCSV("f", bytes.NewReader(data))
		if err != nil || refErr != nil {
			if err == nil || refErr == nil || err.Error() != refErr.Error() {
				t.Fatalf("ReadCSV error %v, reference %v", err, refErr)
			}
			if got != nil {
				t.Fatalf("ReadCSV returned a table beside %v", err)
			}
			return
		}
		sameTable(t, got, want)
		var first, second bytes.Buffer
		if err := got.WriteCSV(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV("f", bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading back %q: %v", first.Bytes(), err)
		}
		sameTable(t, back, got)
		if err := back.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("a table read back from CSV writes %q, first wrote %q", second.Bytes(), first.Bytes())
		}
	})
}

// sameTable fails t unless got and want have the same name, schema, row count
// and columns.
func sameTable(t testing.TB, got, want *Table) {
	t.Helper()
	if got.Name != want.Name || got.Schema.String() != want.Schema.String() || got.NumRows() != want.NumRows() {
		t.Fatalf("table %s %q with %d rows, want %s %q with %d", got.Name, got.Schema, got.NumRows(), want.Name, want.Schema, want.NumRows())
	}
	if err := sameColumns(got.Columns().Cols, want.Columns().Cols); err != nil {
		t.Fatalf("table %s: %v", got.Name, err)
	}
}

// TestReadCSVDirConcurrent: files of very different sizes, loaded
// concurrently again and again, give each the table ReadCSV gives of that file
// alone, in name order; with two bad files the error always names the first in
// name order; a file only encoding/csv can word the rejection of fails with its
// words beside files scanCSV loads; and no loader goroutine outlives the call.
func TestReadCSVDirConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	dir := t.TempDir()
	files := []struct {
		name string
		rows int
	}{{"a", 3*ZoneChunkRows + 517}, {"b", 1}, {"c", 40}, {"d", 0}, {"e", 9000}, {"f", ZoneChunkRows}}
	for _, file := range files {
		schema, rows := randomRows(rng, file.rows)
		tbl := New(file.name, schema)
		for _, r := range rows {
			if r[2].IsNull() { // CSV carries no NULL string
				r[2] = NewString("")
			}
			tbl.AppendRow(r)
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file.name+".csv"), buf.Bytes(), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	alone := map[string]*Table{}
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(dir, file.name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if alone[file.name], err = ReadCSV(file.name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	goroutines := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		db, err := ReadCSVDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(db.TableNames(), ","); got != "a,b,c,d,e,f" {
			t.Fatalf("round %d: tables %s, want a,b,c,d,e,f", round, got)
		}
		for _, file := range files {
			sameTable(t, db.Table(file.name), alone[file.name])
		}
	}

	// b.csv, the first bad file by name, fails last: it is the largest, and
	// its bad line is its last.
	bad := t.TempDir()
	for name, body := range map[string]string{
		"a.csv": "i:int\n1\n", "b.csv": "i:int\n" + strings.Repeat("1\n", 50000) + "x\n", "c.csv": "i:int\n2\n",
		"d.csv": "i:int\n1\ny\n", "e.csv": "i:int\n3\n",
	} {
		if err := os.WriteFile(filepath.Join(bad, name), []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 20; round++ {
		_, err := ReadCSVDir(bad)
		if err == nil || !strings.Contains(err.Error(), "b.csv: table: csv line 50002 col i") {
			t.Fatalf("round %d: error %v, want b.csv's line 50002", round, err)
		}
	}

	// c.csv alone needs decodeCSV, for a bare quote on its last line: the
	// error is encoding/csv's, naming the line and column.
	mixed := t.TempDir()
	for name, body := range map[string]string{
		"a.csv": "i:int,s:string\n1,x\n", "b.csv": "i:int,s:string\n" + strings.Repeat("1,x y\n", 5000),
		"c.csv": "i:int,s:string\n1,x\n2,y\n3,z\"\n", "d.csv": "i:int,s:string\n2,\n",
	} {
		if err := os.WriteFile(filepath.Join(mixed, name), []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	want := filepath.Join(mixed, "c.csv") + ": table: read csv line 4: parse error on line 4, column 4: " + csv.ErrBareQuote.Error()
	for round := 0; round < 20; round++ {
		if _, err := ReadCSVDir(mixed); err == nil || err.Error() != want {
			t.Fatalf("round %d: error %v, want %s", round, err, want)
		}
	}

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after loading, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
