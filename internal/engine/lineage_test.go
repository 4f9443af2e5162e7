package engine

import (
	"context"
	"slices"
	"testing"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// titleDB is one table of n rows under a name that is not lower case, as
// table.ReadCSVDir names a table after a file such as Title.csv.
func titleDB(n int) *table.Database {
	tb := table.New("Title", table.Schema{{Name: "id", Kind: table.KindInt}})
	for i := 0; i < n; i++ {
		tb.AppendRow(table.Row{table.NewInt(int64(i))})
	}
	db := table.NewDatabase()
	db.Add(tb)
	return db
}

// TestLineageOfMixedCaseTable checks that FROM Title and FROM title trace the
// same base rows under the lower-case name, as a lineage and as a table, and
// that LineageContext's allocations do not grow with the rows it traces.
func TestLineageOfMixedCaseTable(t *testing.T) {
	db := titleDB(3000)
	want := make([][]table.RowID, 3000)
	for i := range want {
		want[i] = []table.RowID{{Table: "title", Row: i}}
	}
	equal := func(a, b []table.RowID) bool { return slices.Equal(a, b) }
	for _, sql := range []string{"SELECT * FROM Title", "SELECT id FROM title", "SELECT t.id FROM TITLE t"} {
		stmt := sqlparse.MustParse(sql)
		res, err := LineageContext(context.Background(), db, stmt, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Table != nil || res.Count != len(want) || !slices.EqualFunc(res.Lineage, want, equal) {
			t.Errorf("%s: LineageContext answered %d rows (table %v), lineage %v..., want %d rows under %q",
				sql, res.Count, res.Table != nil, res.Lineage[:min(2, len(res.Lineage))], len(want), "title")
		}
		full, err := ExecuteWith(db, stmt, Options{TrackLineage: true})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !slices.EqualFunc(full.Lineage, want, equal) {
			t.Errorf("%s: ExecuteWith lineage differs from LineageContext's", sql)
		}
	}

	allocs := func(n int) float64 {
		db, stmt := titleDB(n), sqlparse.MustParse("SELECT * FROM Title")
		return testing.AllocsPerRun(5, func() {
			if _, err := LineageContext(context.Background(), db, stmt, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(2000), allocs(20_000); small != large {
		t.Errorf("tracing 2000 rows allocates %.0f objects, 20000 rows %.0f; want the same", small, large)
	}
}
