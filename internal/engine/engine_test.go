package engine

import (
	"errors"
	"strings"
	"testing"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// testDB builds a small movie database with two joinable tables.
func testDB() *table.Database {
	movies := table.New("movies", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "title", Kind: table.KindString},
		{Name: "year", Kind: table.KindInt},
		{Name: "rating", Kind: table.KindFloat},
		{Name: "genre", Kind: table.KindString},
	})
	rows := []struct {
		id     int64
		title  string
		year   int64
		rating float64
		genre  string
	}{
		{1, "Alpha", 1999, 8.1, "drama"},
		{2, "Beta", 2005, 6.4, "comedy"},
		{3, "Gamma", 2010, 7.7, "drama"},
		{4, "Delta", 2015, 5.2, "action"},
		{5, "Epsilon", 2020, 9.0, "drama"},
	}
	for _, r := range rows {
		movies.AppendRow(table.Row{
			table.NewInt(r.id), table.NewString(r.title), table.NewInt(r.year),
			table.NewFloat(r.rating), table.NewString(r.genre),
		})
	}

	credits := table.New("credits", table.Schema{
		{Name: "movie_id", Kind: table.KindInt},
		{Name: "person", Kind: table.KindString},
		{Name: "role", Kind: table.KindString},
	})
	creditRows := []struct {
		mid    int64
		person string
		role   string
	}{
		{1, "Ann", "director"},
		{1, "Bob", "actor"},
		{2, "Cat", "director"},
		{3, "Ann", "director"},
		{3, "Dan", "actor"},
		{5, "Ann", "actor"},
		{9, "Ghost", "actor"}, // dangling FK
	}
	for _, r := range creditRows {
		credits.AppendRow(table.Row{
			table.NewInt(r.mid), table.NewString(r.person), table.NewString(r.role),
		})
	}

	db := table.NewDatabase()
	db.Add(movies)
	db.Add(credits)
	return db
}

// withCell is tbl with one cell replaced. A relation is immutable, so a test
// that wants a NULL somewhere builds the table again.
func withCell(tbl *table.Table, row, col int, v table.Value) *table.Table {
	out := table.New(tbl.Name, tbl.Schema)
	for i := 0; i < tbl.NumRows(); i++ {
		r := tbl.Row(i)
		if i == row {
			r[col] = v
		}
		out.AppendRow(r)
	}
	return out
}

func mustExec(t *testing.T, db *table.Database, sql string) *Result {
	t.Helper()
	res, err := Execute(db, sqlparse.MustParse(sql))
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestExecuteSimpleFilter(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT title FROM movies WHERE year > 2004")
	if res.Table.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", res.Table.NumRows())
	}
	if res.Table.Rows[0][0].Str != "Beta" {
		t.Errorf("first row = %v", res.Table.Rows[0])
	}
}

func TestExecuteStarProjection(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT * FROM movies WHERE id = 1")
	if len(res.Table.Schema) != 5 {
		t.Fatalf("cols = %d, want 5", len(res.Table.Schema))
	}
	if res.Table.Schema[0].Name != "movies.id" {
		t.Errorf("star column names should be qualified, got %q", res.Table.Schema[0].Name)
	}
}

func TestExecutePredicates(t *testing.T) {
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM movies WHERE genre = 'drama'", 3},
		{"SELECT * FROM movies WHERE genre <> 'drama'", 2},
		{"SELECT * FROM movies WHERE year BETWEEN 2000 AND 2015", 3},
		{"SELECT * FROM movies WHERE year NOT BETWEEN 2000 AND 2015", 2},
		{"SELECT * FROM movies WHERE genre IN ('drama', 'action')", 4},
		{"SELECT * FROM movies WHERE genre NOT IN ('drama', 'action')", 1},
		{"SELECT * FROM movies WHERE title LIKE '%eta'", 1},
		{"SELECT * FROM movies WHERE title LIKE '_elta'", 1},
		{"SELECT * FROM movies WHERE title NOT LIKE 'A%'", 4},
		{"SELECT * FROM movies WHERE rating >= 7.7 AND genre = 'drama'", 3},
		{"SELECT * FROM movies WHERE year < 2000 OR year > 2016", 2},
		{"SELECT * FROM movies WHERE NOT (genre = 'drama')", 2},
		{"SELECT * FROM movies WHERE rating > 100", 0},
		{"SELECT * FROM movies WHERE year % 2 = 0", 2},
		{"SELECT * FROM movies WHERE year + 5 > 2020", 1},
		{"SELECT * FROM movies WHERE 1 = 1", 5},
		{"SELECT * FROM movies WHERE 1 = 2", 0},
	}
	db := testDB()
	for _, c := range cases {
		res := mustExec(t, db, c.sql)
		if res.Table.NumRows() != c.want {
			t.Errorf("%s: rows = %d, want %d", c.sql, res.Table.NumRows(), c.want)
		}
	}
}

func TestExecuteImplicitJoin(t *testing.T) {
	res := mustExec(t, testDB(),
		"SELECT m.title, c.person FROM movies m, credits c WHERE m.id = c.movie_id AND c.role = 'director'")
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.Table.NumRows())
	}
}

func TestExecuteExplicitJoin(t *testing.T) {
	res := mustExec(t, testDB(),
		"SELECT m.title, c.person FROM movies m JOIN credits c ON m.id = c.movie_id WHERE c.person = 'Ann'")
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.Table.NumRows())
	}
}

func TestJoinMatchesBruteForce(t *testing.T) {
	// Cross-check the hash join against a brute-force nested loop.
	db := testDB()
	res := mustExec(t, db, "SELECT m.id, c.person FROM movies m, credits c WHERE m.id = c.movie_id")
	movies, credits := db.Table("movies"), db.Table("credits")
	want := 0
	for i := 0; i < movies.NumRows(); i++ {
		for j := 0; j < credits.NumRows(); j++ {
			if movies.Cell(i, 0).Equal(credits.Cell(j, 0)) {
				want++
			}
		}
	}
	if res.Table.NumRows() != want {
		t.Errorf("hash join rows = %d, brute force = %d", res.Table.NumRows(), want)
	}
}

func TestLineageTracking(t *testing.T) {
	res := mustExec(t, testDB(),
		"SELECT m.title FROM movies m JOIN credits c ON m.id = c.movie_id WHERE c.role = 'director'")
	if len(res.Lineage) != res.Table.NumRows() {
		t.Fatalf("lineage entries = %d, rows = %d", len(res.Lineage), res.Table.NumRows())
	}
	for i, lin := range res.Lineage {
		if len(lin) != 2 {
			t.Fatalf("row %d lineage arity = %d, want 2", i, len(lin))
		}
		if lin[0].Table != "movies" || lin[1].Table != "credits" {
			t.Errorf("row %d lineage tables = %v", i, lin)
		}
	}
	// The movie row referenced by lineage must actually satisfy the query.
	db := testDB()
	for _, lin := range res.Lineage {
		row := db.Table("movies").Row(lin[0].Row)
		if row[0].Kind != table.KindInt {
			t.Error("lineage points at wrong column layout")
		}
	}
}

func TestLineageDisabled(t *testing.T) {
	stmt := sqlparse.MustParse("SELECT title FROM movies")
	res, err := ExecuteWith(testDB(), stmt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lineage != nil {
		t.Error("lineage should be nil when not tracked")
	}
}

func TestDistinct(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT DISTINCT genre FROM movies")
	if res.Table.NumRows() != 3 {
		t.Fatalf("distinct genres = %d, want 3", res.Table.NumRows())
	}
}

func TestOrderByAndLimit(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT title, rating FROM movies ORDER BY rating DESC LIMIT 2")
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.Table.NumRows())
	}
	if res.Table.Rows[0][0].Str != "Epsilon" || res.Table.Rows[1][0].Str != "Alpha" {
		t.Errorf("order wrong: %v", res.Table.Rows)
	}
}

func TestOrderByMultiKey(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT genre, title FROM movies ORDER BY genre ASC, title DESC")
	if res.Table.Rows[0][0].Str != "action" {
		t.Errorf("first genre = %v", res.Table.Rows[0])
	}
	// Within drama (rows 2..4), titles should be descending.
	var dramas []string
	for _, r := range res.Table.Rows {
		if r[0].Str == "drama" {
			dramas = append(dramas, r[1].Str)
		}
	}
	if strings.Join(dramas, ",") != "Gamma,Epsilon,Alpha" {
		t.Errorf("drama order = %v", dramas)
	}
}

func TestLimitZero(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT * FROM movies LIMIT 0")
	if res.Table.NumRows() != 0 {
		t.Errorf("LIMIT 0 returned %d rows", res.Table.NumRows())
	}
}

func TestAggregatesGlobal(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT COUNT(*), SUM(rating), AVG(year), MIN(rating), MAX(rating) FROM movies")
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", res.Table.NumRows())
	}
	row := res.Table.Rows[0]
	if row[0].Int != 5 {
		t.Errorf("COUNT = %v", row[0])
	}
	if row[1].Float != 8.1+6.4+7.7+5.2+9.0 {
		t.Errorf("SUM = %v", row[1])
	}
	if row[3].Float != 5.2 || row[4].Float != 9.0 {
		t.Errorf("MIN/MAX = %v/%v", row[3], row[4])
	}
}

func TestAggregatesGroupBy(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT genre, COUNT(*) AS n FROM movies GROUP BY genre ORDER BY n DESC")
	if res.Table.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", res.Table.NumRows())
	}
	if res.Table.Rows[0][0].Str != "drama" || res.Table.Rows[0][1].Int != 3 {
		t.Errorf("top group = %v", res.Table.Rows[0])
	}
}

func TestAggregatesHaving(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT genre, COUNT(*) FROM movies GROUP BY genre HAVING COUNT(*) >= 2")
	if res.Table.NumRows() != 1 {
		t.Fatalf("groups = %d, want 1", res.Table.NumRows())
	}
	if res.Table.Rows[0][0].Str != "drama" {
		t.Errorf("group = %v", res.Table.Rows[0])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT COUNT(*), SUM(rating) FROM movies WHERE year > 3000")
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", res.Table.NumRows())
	}
	if res.Table.Rows[0][0].Int != 0 {
		t.Errorf("COUNT over empty = %v", res.Table.Rows[0][0])
	}
	if !res.Table.Rows[0][1].IsNull() {
		t.Errorf("SUM over empty should be NULL, got %v", res.Table.Rows[0][1])
	}
}

func TestAggregateGroupByEmptyInput(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT genre, COUNT(*) FROM movies WHERE year > 3000 GROUP BY genre")
	if res.Table.NumRows() != 0 {
		t.Errorf("grouped aggregate over empty input should yield no rows, got %d", res.Table.NumRows())
	}
}

func TestAggregateCountColumnSkipsNulls(t *testing.T) {
	db := testDB()
	db.Add(withCell(db.Table("movies"), 0, 3, table.Null)) // rating of Alpha
	res := mustExec(t, db, "SELECT COUNT(rating) FROM movies")
	if res.Table.Rows[0][0].Int != 4 {
		t.Errorf("COUNT(col) with null = %v, want 4", res.Table.Rows[0][0])
	}
}

func TestAggregateExpressionOverAggregates(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT SUM(rating) / COUNT(*) AS avg_rating FROM movies")
	avg := res.Table.Rows[0][0].Float
	want := (8.1 + 6.4 + 7.7 + 5.2 + 9.0) / 5
	if avg < want-1e-9 || avg > want+1e-9 {
		t.Errorf("avg via expression = %v, want %v", avg, want)
	}
}

func TestNullJoinSemantics(t *testing.T) {
	db := testDB()
	db.Add(withCell(db.Table("credits"), 0, 0, table.Null)) // Ann/director now has NULL movie_id
	res := mustExec(t, db, "SELECT m.title FROM movies m JOIN credits c ON m.id = c.movie_id")
	// Previously 6 matching pairs, one removed by the NULL key.
	if res.Table.NumRows() != 5 {
		t.Errorf("rows = %d, want 5 (NULL keys never join)", res.Table.NumRows())
	}
}

func TestCrossProduct(t *testing.T) {
	res := mustExec(t, testDB(), "SELECT m.id, c.person FROM movies m, credits c")
	if res.Table.NumRows() != 5*7 {
		t.Errorf("cross product rows = %d, want 35", res.Table.NumRows())
	}
}

func TestCrossProductLimitEnforced(t *testing.T) {
	stmt := sqlparse.MustParse("SELECT m.id FROM movies m, credits c")
	_, err := ExecuteWith(testDB(), stmt, Options{MaxIntermediateRows: 10})
	if err == nil {
		t.Error("cross product over limit should fail")
	}
	if errors.Is(err, ErrStatement) {
		t.Errorf("a row-budget trip is not an error of the statement: %v", err)
	}
}

func TestErrorCases(t *testing.T) {
	db := testDB()
	bad := []string{
		"SELECT * FROM ghost_table",
		"SELECT ghost_col FROM movies",
		"SELECT id FROM movies, credits",                                   // ambiguous? id only in movies — fine; use person
		"SELECT x.title FROM movies m",                                     // unknown qualifier
		"SELECT m.title FROM movies m, movies m",                           // duplicate alias
		"SELECT * FROM movies WHERE COUNT(*) > 1",                          // aggregate in WHERE
		"SELECT *, id FROM movies",                                         // star is exclusive in our grammar
		"SELECT * FROM movies GROUP BY genre",                              // star with group by
		"SELECT title FROM movies ORDER BY ghost",                          // unknown order col
		"SELECT genre, COUNT(*) FROM movies GROUP BY genre ORDER BY ghost", // unknown agg order col
		"SELECT title + 1 FROM movies",                                     // arithmetic on a string
		"SELECT -title FROM movies",                                        // negated string
	}
	for _, sql := range bad {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			continue // rejected by the grammar before the engine runs
		}
		_, err = Execute(db, stmt)
		switch {
		case err == nil:
			// "SELECT id FROM movies, credits" is actually unambiguous; skip.
			if sql == "SELECT id FROM movies, credits" {
				continue
			}
			t.Errorf("%s: expected error", sql)
		case !errors.Is(err, ErrStatement):
			t.Errorf("%s: %v does not match ErrStatement", sql, err)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := testDB()
	// Both tables have no shared names; add one to force ambiguity.
	p := table.New("people", table.Schema{{Name: "person", Kind: table.KindString}})
	p.AppendRow(table.Row{table.NewString("Ann")})
	db.Add(p)
	if _, err := Execute(db, sqlparse.MustParse("SELECT person FROM credits, people")); err == nil {
		t.Error("ambiguous column should error")
	}
}

func TestCountHelper(t *testing.T) {
	n, err := Count(testDB(), sqlparse.MustParse("SELECT * FROM movies WHERE genre = 'drama'"))
	if err != nil || n != 3 {
		t.Errorf("Count = %d (%v), want 3", n, err)
	}
}

func TestRewriteAggregateToSPJ(t *testing.T) {
	stmt := sqlparse.MustParse(
		"SELECT genre, COUNT(*), AVG(rating) FROM movies WHERE year > 2000 GROUP BY genre HAVING COUNT(*) > 1 ORDER BY genre LIMIT 3")
	spj := RewriteAggregateToSPJ(stmt)
	if spj.HasAggregates() {
		t.Fatal("rewrite should remove aggregates")
	}
	if spj.Where == nil {
		t.Error("rewrite should keep WHERE")
	}
	// Should project genre (group key) and rating (AVG argument).
	if len(spj.Items) != 2 {
		t.Fatalf("rewritten items = %v", spj.Items)
	}
	res, err := Execute(testDB(), spj)
	if err != nil {
		t.Fatalf("executing rewritten query: %v", err)
	}
	if res.Table.NumRows() != 4 {
		t.Errorf("rewritten rows = %d, want 4 (movies after 2000)", res.Table.NumRows())
	}
}

func TestRewriteNonAggregateIsClone(t *testing.T) {
	stmt := sqlparse.MustParse("SELECT title FROM movies WHERE year > 2000")
	spj := RewriteAggregateToSPJ(stmt)
	if spj == stmt {
		t.Error("rewrite should return a copy")
	}
	if spj.String() != stmt.String() {
		t.Error("non-aggregate rewrite should be identical")
	}
}

func TestRewriteCountStarOnly(t *testing.T) {
	stmt := sqlparse.MustParse("SELECT COUNT(*) FROM movies WHERE year > 2000")
	spj := RewriteAggregateToSPJ(stmt)
	if !spj.Star {
		t.Errorf("COUNT(*)-only rewrite should become SELECT *: %s", spj)
	}
}

func TestSubsetExecution(t *testing.T) {
	// Queries over a materialized subset return a subset of full results.
	db := testDB()
	sub := table.NewSubset()
	sub.Add(table.RowID{Table: "movies", Row: 0})
	sub.Add(table.RowID{Table: "movies", Row: 4})
	sub.Add(table.RowID{Table: "credits", Row: 0})
	sub.Add(table.RowID{Table: "credits", Row: 5})
	sdb := sub.Materialize(db)

	full := mustExec(t, db, "SELECT m.title, c.person FROM movies m JOIN credits c ON m.id = c.movie_id")
	part := mustExec(t, sdb, "SELECT m.title, c.person FROM movies m JOIN credits c ON m.id = c.movie_id")
	if part.Table.NumRows() > full.Table.NumRows() {
		t.Fatal("subset result larger than full result")
	}
	fullKeys := map[string]bool{}
	for _, r := range full.Table.Rows {
		fullKeys[r.Key()] = true
	}
	for _, r := range part.Table.Rows {
		if !fullKeys[r.Key()] {
			t.Errorf("subset row %v not in full result", r)
		}
	}
	if part.Table.NumRows() != 2 {
		t.Errorf("subset rows = %d, want 2 (Alpha/Ann, Epsilon/Ann)", part.Table.NumRows())
	}
}
