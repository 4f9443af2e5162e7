package datagen

import (
	"strings"
	"testing"

	"asqprl/internal/engine"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

func TestIMDBShape(t *testing.T) {
	db := IMDB(0.02, 1)
	for _, name := range []string{"title", "name", "cast_info", "movie_info"} {
		if db.Table(name) == nil {
			t.Fatalf("missing table %s", name)
		}
		if db.Table(name).NumRows() == 0 {
			t.Errorf("table %s is empty", name)
		}
	}
	// Foreign keys resolve: every cast_info.title_id exists in title.
	titles := db.Table("title").NumRows()
	ci := db.Table("cast_info")
	col := ci.ColumnIndex("title_id")
	for ri := 0; ri < ci.NumRows(); ri++ {
		r := ci.Row(ri)
		if id := r[col].Int; id < 0 || id >= int64(titles) {
			t.Fatalf("dangling title_id %d", id)
		}
	}
}

func TestIMDBJoinsProduceRows(t *testing.T) {
	db := IMDB(0.02, 1)
	res, err := engine.Execute(db,
		sqlparse.MustParse("SELECT t.title, n.name FROM title t JOIN cast_info c ON t.id = c.title_id JOIN name n ON c.name_id = n.id WHERE t.genre = 'drama'"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Error("three-way join over generated data returned nothing")
	}
}

func TestIMDBSkew(t *testing.T) {
	db := IMDB(0.05, 2)
	// Genre distribution should be skewed: most popular genre well above
	// uniform share.
	counts := map[string]int{}
	gi := db.Table("title").ColumnIndex("genre")
	for ri := 0; ri < db.Table("title").NumRows(); ri++ {
		r := db.Table("title").Row(ri)
		counts[r[gi].Str]++
	}
	max, total := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	uniform := total / len(counts)
	if max < uniform*2 {
		t.Errorf("genre skew too weak: max %d vs uniform %d", max, uniform)
	}
}

func TestMASShape(t *testing.T) {
	db := MAS(0.02, 1)
	for _, name := range []string{"author", "publication", "writes", "conference"} {
		if db.Table(name) == nil || db.Table(name).NumRows() == 0 {
			t.Fatalf("table %s missing or empty", name)
		}
	}
	res, err := engine.Execute(db,
		sqlparse.MustParse("SELECT a.name FROM author a JOIN writes w ON a.id = w.author_id JOIN publication p ON w.publication_id = p.id WHERE p.year > 2000"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Error("MAS join returned nothing")
	}
}

func TestFlightsShape(t *testing.T) {
	db := Flights(0.02, 1)
	f := db.Table("flights")
	if f == nil || f.NumRows() == 0 {
		t.Fatal("flights missing")
	}
	// origin != dest invariant.
	oi, di := f.ColumnIndex("origin"), f.ColumnIndex("dest")
	for ri := 0; ri < f.NumRows(); ri++ {
		r := f.Row(ri)
		if r[oi].Str == r[di].Str {
			t.Fatal("origin == dest")
		}
	}
	res, err := engine.Execute(db, sqlparse.MustParse("SELECT carrier, AVG(dep_delay) FROM flights GROUP BY carrier"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() < 4 {
		t.Errorf("only %d carriers", res.Table.NumRows())
	}
}

func TestDeterminism(t *testing.T) {
	a := IMDB(0.01, 5)
	b := IMDB(0.01, 5)
	at, bt := a.Table("title"), b.Table("title")
	if at.NumRows() != bt.NumRows() {
		t.Fatal("row counts differ")
	}
	for i := 0; i < at.NumRows(); i++ {
		if at.Row(i).Key() != bt.Row(i).Key() {
			t.Fatal("same seed produced different data")
		}
	}
	c := IMDB(0.01, 6)
	if c.Table("title").Row(0).Key() == at.Row(0).Key() && c.Table("title").Row(1).Key() == at.Row(1).Key() {
		t.Error("different seeds produced identical data")
	}
}

func TestScaleGrowsData(t *testing.T) {
	small := IMDB(0.01, 1)
	big := IMDB(0.05, 1)
	if big.TotalRows() <= small.TotalRows() {
		t.Errorf("scale 0.05 (%d rows) should exceed 0.01 (%d rows)",
			big.TotalRows(), small.TotalRows())
	}
}

func TestBlowup(t *testing.T) {
	db := Flights(0.01, 1)
	n := db.TotalRows()
	big := Blowup(db, 3)
	if big.TotalRows() != 3*n {
		t.Errorf("blowup x3: %d rows, want %d", big.TotalRows(), 3*n)
	}
	// IDs stay unique.
	f := big.Table("flights")
	idc := f.ColumnIndex("id")
	seen := map[int64]bool{}
	for ri := 0; ri < f.NumRows(); ri++ {
		r := f.Row(ri)
		if seen[r[idc].Int] {
			t.Fatal("duplicate id after blowup")
		}
		seen[r[idc].Int] = true
	}
	// Factor 1 returns the same database.
	if Blowup(db, 1) != db {
		t.Error("factor 1 should be identity")
	}
}

func TestZipfPickBounds(t *testing.T) {
	rngDB := IMDB(0.01, 3) // just to touch generation paths
	_ = rngDB
	var _ = table.NewDatabase()
}

func TestByName(t *testing.T) {
	for name, table := range map[string]string{"imdb": "title", "mas": "author", "flights": "flights"} {
		db, err := ByName(name, 0.01, 1)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if db.Table(table) == nil {
			t.Errorf("ByName(%q) has no %s table (tables %v)", name, table, db.TableNames())
		}
	}
	if _, err := ByName("tpch", 0.01, 1); err == nil || !strings.Contains(err.Error(), `"tpch"`) {
		t.Errorf("ByName(tpch) = %v, want an error naming the dataset", err)
	}
}
