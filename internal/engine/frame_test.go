package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// bigDB is one table of n rows (id, id%7, a string).
func bigDB(n int) *table.Database {
	t := table.New("big", table.Schema{
		{Name: "id", Kind: table.KindInt}, {Name: "m", Kind: table.KindInt}, {Name: "s", Kind: table.KindString},
	})
	for i := 0; i < n; i++ {
		t.AppendRow(table.Row{table.NewInt(int64(i)), table.NewInt(int64(i % 7)), table.NewString("row")})
	}
	db := table.NewDatabase()
	db.Add(t)
	return db
}

// TestFrameBorrowsBaseRows: an SPJ projection of columns and literals answers
// ExecuteFrameContext without building a row — its columns are the base
// table's own vectors — LIMIT only shortens it, and statements that need values first come
// back as a frame over rows of their own. Either way the frame holds exactly
// the table the row engine builds.
func TestFrameBorrowsBaseRows(t *testing.T) {
	db := bigDB(6000)
	base := db.Table("big").Columns().Cols
	for _, tc := range []struct {
		sql      string
		n        int
		borrowed bool
	}{
		{"SELECT * FROM big WHERE m = 3", 857, true},
		{"SELECT * FROM big WHERE m = 3 LIMIT 50", 50, true},
		{"SELECT * FROM big LIMIT 0", 0, true},
		{"SELECT s, 7, id FROM big WHERE id >= 5990 LIMIT 100", 10, true},
		{"SELECT id + 1 FROM big LIMIT 5", 5, false},
		{"SELECT DISTINCT m FROM big LIMIT 3", 3, false},
		{"SELECT id FROM big ORDER BY id DESC LIMIT 4", 4, false},
		{"SELECT m, COUNT(*) FROM big GROUP BY m", 7, false},
	} {
		stmt := sqlparse.MustParse(tc.sql)
		res, err := ExecuteFrameContext(context.Background(), db, stmt, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		f := res.Frame
		if res.Table != nil || f == nil || f.N != tc.n {
			t.Fatalf("%s: table %v, frame %+v; want a frame of %d rows alone", tc.sql, res.Table, f, tc.n)
		}
		borrowed := false
		for j := range f.Cols {
			for k := range base {
				borrowed = borrowed || f.Cols[j].Data == &base[k]
			}
		}
		if borrowed != tc.borrowed {
			t.Errorf("%s: frame reads base vectors in place = %v, want %v", tc.sql, borrowed, tc.borrowed)
		}
		ref, err := rowExecute(context.Background(), db, stmt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultFingerprint(&Result{Table: f.Table()}), resultFingerprint(ref); got != want {
			t.Errorf("%s: frame holds\n%.300s\nwant\n%.300s", tc.sql, got, want)
		}
		if n, err := CountContext(context.Background(), db, stmt, Options{}); err != nil || n != tc.n {
			t.Errorf("%s: CountContext = %d, %v; want %d", tc.sql, n, err, tc.n)
		}
	}
}

// TestLimitDoesNotLiftOutputBudget: the output budget is charged on the
// pre-LIMIT count, so LIMIT 5 over 857 matching rows still trips a budget of
// 100 — with the first 100 rows, un-LIMITed, as the partial answer — in every
// form the answer can take.
func TestLimitDoesNotLiftOutputBudget(t *testing.T) {
	db := bigDB(6000)
	stmt := sqlparse.MustParse("SELECT id, s FROM big WHERE m = 3 LIMIT 5")
	opts := Options{MaxOutputRows: 100}
	res, err := ExecuteFrameContext(context.Background(), db, stmt, opts)
	if !errors.Is(err, ErrRowBudget) || res == nil || res.Frame.N != 100 {
		t.Fatalf("frame: %+v, %v; want 100 partial rows and ErrRowBudget", res, err)
	}
	tab, err := ExecuteWithContext(context.Background(), db, stmt, opts)
	if !errors.Is(err, ErrRowBudget) || tab == nil || tab.Table.NumRows() != 100 {
		t.Fatalf("table: %+v, %v; want 100 partial rows and ErrRowBudget", tab, err)
	}
	if n, err := CountContext(context.Background(), db, stmt, opts); !errors.Is(err, ErrRowBudget) || n != 0 {
		t.Fatalf("count: %d, %v; want ErrRowBudget", n, err)
	}
	opts.MaxOutputRows = 857
	if n, err := CountContext(context.Background(), db, stmt, opts); err != nil || n != 5 {
		t.Fatalf("count under a budget the pre-LIMIT rows fit: %d, %v; want 5", n, err)
	}
}

// TestProjectSpanReportsLimitAndMaterialization pins the engine/project span's
// vocabulary: rows_in is the joined batch, rows_out what the projection hands
// on (post-LIMIT when LIMIT is its own), materialized whether rows were built.
func TestProjectSpanReportsLimitAndMaterialization(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(wasEnabled) })
	db := bigDB(100)
	for _, tc := range []struct {
		sql          string
		frames       bool
		in, out      int
		materialized bool
	}{
		{"SELECT * FROM big LIMIT 10", true, 100, 10, false},
		{"SELECT * FROM big LIMIT 10", false, 100, 10, true},
		{"SELECT id FROM big ORDER BY id LIMIT 10", true, 100, 100, true},
		{"SELECT id * 2 FROM big LIMIT 10", true, 100, 10, true},
	} {
		ctx, root := obs.StartSpan(context.Background(), "test/root")
		run := ExecuteWithContext
		if tc.frames {
			run = ExecuteFrameContext
		}
		if _, err := run(ctx, db, sqlparse.MustParse(tc.sql), Options{}); err != nil {
			t.Fatal(err)
		}
		root.End()
		proj := findSpan(root.Snapshot(), "engine/project")
		if proj == nil {
			t.Fatalf("%s: no engine/project span", tc.sql)
		}
		if proj.Attrs["rows_in"] != tc.in || proj.Attrs["rows_out"] != tc.out || proj.Attrs["materialized"] != tc.materialized {
			t.Errorf("%s (frames=%v): project span %v, want rows_in %d rows_out %d materialized %v",
				tc.sql, tc.frames, proj.Attrs, tc.in, tc.out, tc.materialized)
		}
	}
}

// TestExplainPlacesLimit: LIMIT prints under project when the projection
// applies it and under finish when a sort, DISTINCT or aggregate precedes it.
func TestExplainPlacesLimit(t *testing.T) {
	db := testDB()
	for sql, want := range map[string]string{
		"SELECT title FROM movies WHERE year > 2000 LIMIT 3":        "  project\n    limit 3\n",
		"SELECT title FROM movies ORDER BY title LIMIT 3":           "  project\n  finish\n    sort by title\n    limit 3\n",
		"SELECT DISTINCT genre FROM movies LIMIT 3":                 "  project\n  finish\n    distinct\n    limit 3\n",
		"SELECT genre, COUNT(*) FROM movies GROUP BY genre LIMIT 2": "  hash aggregate by genre (dictionary codes)\n  finish\n    limit 2\n",
		"SELECT title FROM movies":                                  "  project\n",
	} {
		plan, err := Explain(db, sqlparse.MustParse(sql))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(plan, want) {
			t.Errorf("%s: plan ends\n%s\nwant suffix\n%s", sql, plan, want)
		}
	}
}
