package table

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func testTable(t *testing.T) *Table {
	t.Helper()
	tab := New("movies", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "title", Kind: KindString},
		{Name: "year", Kind: KindInt},
		{Name: "rating", Kind: KindFloat},
	})
	tab.AppendRow(Row{NewInt(1), NewString("Alpha"), NewInt(1999), NewFloat(8.1)})
	tab.AppendRow(Row{NewInt(2), NewString("Beta"), NewInt(2005), NewFloat(6.4)})
	tab.AppendRow(Row{NewInt(3), NewString("Gamma"), NewInt(2010), Null})
	return tab
}

func TestTableBasics(t *testing.T) {
	tab := testTable(t)
	if tab.NumRows() != 3 || len(tab.Schema) != 4 {
		t.Fatalf("got %dx%d, want 3x4", tab.NumRows(), len(tab.Schema))
	}
	if tab.ColumnIndex("TITLE") != 1 {
		t.Error("column lookup should be case-insensitive")
	}
	if tab.ColumnIndex("nope") != -1 {
		t.Error("missing column should return -1")
	}
	if got := tab.Cell(0, 2); got != NewInt(1999) {
		t.Errorf("Cell(0, year) = %v", got)
	}
	if got := tab.Row(2); len(got) != 4 || got[1] != NewString("Gamma") || !got[3].IsNull() {
		t.Errorf("Row(2) = %v", got)
	}
}

func TestTableAppendArityPanics(t *testing.T) {
	tab := testTable(t)
	defer func() {
		if recover() == nil {
			t.Error("appending wrong-arity row should panic")
		}
	}()
	tab.AppendRow(Row{NewInt(1)})
}

func TestTableSelect(t *testing.T) {
	tab := testTable(t)
	sel := tab.Select([]int{2, 0, 99, -1})
	if sel.NumRows() != 2 {
		t.Fatalf("Select kept %d rows, want 2 (out-of-range skipped)", sel.NumRows())
	}
	if sel.Cell(0, 1).Str != "Gamma" || sel.Cell(1, 1).Str != "Alpha" {
		t.Errorf("Select order not preserved: %v %v", sel.Row(0), sel.Row(1))
	}
}

func TestDatabaseCatalog(t *testing.T) {
	db := NewDatabase()
	db.Add(testTable(t))
	other := New("People", Schema{{Name: "id", Kind: KindInt}})
	other.AppendRow(Row{NewInt(1)})
	db.Add(other)

	if db.Table("MOVIES") == nil || db.Table("people") == nil {
		t.Error("table lookup should be case-insensitive")
	}
	if db.Table("ghost") != nil {
		t.Error("missing table should be nil")
	}
	if got := db.TotalRows(); got != 4 {
		t.Errorf("TotalRows = %d, want 4", got)
	}
	names := db.TableNames()
	if len(names) != 2 || names[0] != "movies" || names[1] != "people" {
		t.Errorf("TableNames = %v", names)
	}
	// Replacing a table keeps order and count.
	db.Add(New("movies", Schema{{Name: "x", Kind: KindInt}}))
	if len(db.TableNames()) != 2 {
		t.Error("re-adding existing table should not duplicate entry")
	}
}

func TestSubsetBasics(t *testing.T) {
	s := NewSubset()
	s.Add(RowID{Table: "Movies", Row: 1})
	s.Add(RowID{Table: "movies", Row: 1}) // duplicate, different case
	s.Add(RowID{Table: "movies", Row: 0})
	s.Add(RowID{Table: "people", Row: 5})

	if s.Size() != 3 {
		t.Errorf("Size = %d, want 3", s.Size())
	}
	if !s.Contains(RowID{Table: "MOVIES", Row: 1}) {
		t.Error("Contains should be case-insensitive")
	}
	if s.Contains(RowID{Table: "movies", Row: 7}) {
		t.Error("Contains on absent row")
	}
	rows := s.TableRows("movies")
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 1 {
		t.Errorf("TableRows = %v, want [0 1]", rows)
	}
	ids := s.IDs()
	if len(ids) != 3 || ids[0].Table != "movies" || ids[2].Table != "people" {
		t.Errorf("IDs = %v", ids)
	}
}

func TestSubsetMaterialize(t *testing.T) {
	db := NewDatabase()
	db.Add(testTable(t))
	empty := New("empty", Schema{{Name: "id", Kind: KindInt}})
	db.Add(empty)

	s := NewSubset()
	s.Add(RowID{Table: "movies", Row: 0})
	s.Add(RowID{Table: "movies", Row: 2})
	sub := s.Materialize(db)

	m := sub.Table("movies")
	if m.NumRows() != 2 {
		t.Fatalf("materialized movies has %d rows, want 2", m.NumRows())
	}
	if m.Cell(0, 1).Str != "Alpha" || m.Cell(1, 1).Str != "Gamma" {
		t.Errorf("materialized rows = %v %v", m.Row(0), m.Row(1))
	}
	// Tables with no selected rows exist but are empty.
	if e := sub.Table("empty"); e == nil || e.NumRows() != 0 {
		t.Error("unselected table should materialize empty, not missing")
	}
}

func TestSubsetCloneIndependence(t *testing.T) {
	s := NewSubset()
	s.Add(RowID{Table: "t", Row: 1})
	c := s.Clone()
	c.Add(RowID{Table: "t", Row: 2})
	if s.Size() != 1 || c.Size() != 2 {
		t.Errorf("clone not independent: orig=%d clone=%d", s.Size(), c.Size())
	}
}

func TestSubsetSizeProperty(t *testing.T) {
	// Property: Size equals the number of distinct (table,row) pairs added.
	f := func(rows []uint8) bool {
		s := NewSubset()
		distinct := map[int]bool{}
		for _, r := range rows {
			s.Add(RowID{Table: "t", Row: int(r)})
			distinct[int(r)] = true
		}
		return s.Size() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowKeyUniqueness(t *testing.T) {
	a := Row{NewString("x"), NewString("y")}
	b := Row{NewString("xy"), NewString("")}
	if a.Key() == b.Key() {
		t.Error("row keys should not collide across different splits")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := testTable(t)
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("movies", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tab.NumRows() {
		t.Fatalf("round trip rows = %d, want %d", got.NumRows(), tab.NumRows())
	}
	for i := 0; i < tab.NumRows(); i++ {
		r := tab.Row(i)
		for j, v := range r {
			g := got.Cell(i, j)
			if v.IsNull() != g.IsNull() || (!v.IsNull() && !v.Equal(g)) {
				t.Errorf("cell (%d,%d): got %v want %v", i, j, g, v)
			}
		}
	}
	if got.Schema.String() != tab.Schema.String() {
		t.Errorf("schema round trip: got %q want %q", got.Schema.String(), tab.Schema.String())
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("id\n1\n")); err == nil {
		t.Error("header without kind should fail")
	}
	if _, err := ReadCSV("x", strings.NewReader("id:widget\n1\n")); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := ReadCSV("x", strings.NewReader("id:int\nnot_a_number\n")); err == nil {
		t.Error("bad int cell should fail")
	}
	if _, err := ReadCSV("x", strings.NewReader("id:int,name:string\n1\n")); err == nil {
		t.Error("wrong field count should fail")
	}
}

// TestReadCSVDir: a directory of CSV files loads as one database, and whatever
// stops it — nothing to load, two files naming one table, a column declared
// null, a cell that is not of its column's kind — is an error naming the file
// and, inside it, line and column.
func TestReadCSVDir(t *testing.T) {
	for _, tc := range []struct {
		name    string
		files   map[string]string
		wantErr []string // substrings of the error; nil: loads
	}{
		{"happy path", map[string]string{"title.csv": "id:int,name:string\n1,Alpha\n2,\n", "Cast.csv": "title_id:int\n1\n"}, nil},
		{"no CSVs", map[string]string{"notes.txt": "id:int\n1\n"}, []string{"no CSV files in "}},
		{"two files, one table", map[string]string{"Title.csv": "id:int\n1\n", "title.csv": "id:int\n2\n"}, []string{"title.csv", "already loaded from Title.csv"}},
		{"null-kind column", map[string]string{"title.csv": "id:int,junk:null\n1,\n"}, []string{"title.csv", "line 1 col junk", "declared null"}},
		{"cell of another kind", map[string]string{"title.csv": "id:int,year:int\n1,1999\n2,soon\n"}, []string{"title.csv", "line 3 col year", `"soon"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, body := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o600); err != nil {
					t.Fatal(err)
				}
			}
			db, err := ReadCSVDir(dir)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatal(err)
				}
				if names := db.TableNames(); len(names) != 2 || names[0] != "cast" || names[1] != "title" {
					t.Fatalf("tables = %v, want cast then title (file-name order)", names)
				}
				if tt := db.Table("title"); tt.NumRows() != 2 || !tt.Cell(1, 1).Equal(NewString("")) {
					t.Fatalf("title = %v", tt.Row(1))
				}
				db.Table("title").Columns() // every cell is of its column's kind
				return
			}
			if err == nil {
				t.Fatalf("loaded %v, want an error", db.TableNames())
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

func TestSchemaHelpers(t *testing.T) {
	s := Schema{{Name: "a", Kind: KindInt}, {Name: "b", Kind: KindString}}
	if got := s.Names(); len(got) != 2 || got[1] != "b" {
		t.Errorf("Names = %v", got)
	}
	cl := s.Clone()
	cl[0].Name = "z"
	if s[0].Name != "a" {
		t.Error("Clone should be independent")
	}
	if s.String() != "a:int, b:string" {
		t.Errorf("String = %q", s.String())
	}
}

func TestRowIDString(t *testing.T) {
	id := RowID{Table: "movies", Row: 42}
	if id.String() != "movies:42" {
		t.Errorf("RowID.String = %q", id.String())
	}
}
