package engine

import (
	"context"
	"strings"
	"testing"

	"asqprl/internal/sqlparse"
)

func TestExplainJoinPlan(t *testing.T) {
	db := testDB()
	plan, err := Explain(db, sqlparse.MustParse(
		"SELECT m.title FROM movies m JOIN credits c ON m.id = c.movie_id WHERE m.year > 2000 AND c.role = 'director' ORDER BY m.title LIMIT 5"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"scan m", "scan c",
		"filter: m.year > 2000", "filter: c.role = 'director'",
		"index join c on m.id = c.movie_id (runs)",
		"project", "sort by m.title", "limit 5",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}

	// The other way round the step probes movies' primary key: one row per key.
	plan, err = Explain(db, sqlparse.MustParse(
		"SELECT c.person FROM credits c JOIN movies m ON m.id = c.movie_id JOIN credits d ON d.movie_id = m.id"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"index join m on m.id = c.movie_id (unique keys)",
		"index join d on d.movie_id = m.id (runs)",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainCrossAndAggregate(t *testing.T) {
	db := testDB()
	plan, err := Explain(db, sqlparse.MustParse(
		"SELECT genre, COUNT(*) FROM movies, credits GROUP BY genre HAVING COUNT(*) > 1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cross join credits", "hash aggregate by genre", "having: COUNT(*) > 1"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

func TestExplainResidualPredicate(t *testing.T) {
	db := testDB()
	plan, err := Explain(db, sqlparse.MustParse(
		"SELECT m.id FROM movies m, credits c WHERE m.id = c.movie_id AND m.year + c.movie_id > 2000"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "residual filter") {
		t.Errorf("plan missing residual filter:\n%s", plan)
	}
}

// TestPlanShape: an execution's plan names its shape, whichever form the
// answer takes; a failed execution's plan too, once its relations resolved; and
// the zero Plan names none.
func TestPlanShape(t *testing.T) {
	db := testDB()
	cases := []struct {
		sql, want string
	}{
		{"SELECT * FROM movies", "scan1"},
		{"SELECT * FROM movies WHERE year > 2000 ORDER BY title LIMIT 5", "scan1+sort+limit"},
		{"SELECT m.title FROM movies m JOIN credits c ON m.id = c.movie_id", "scan2-hash1"},
		{"SELECT genre, COUNT(*) FROM movies, credits GROUP BY genre", "scan2-cross1+agg"},
		{"SELECT DISTINCT m.id FROM movies m, credits c WHERE m.id = c.movie_id AND m.year + c.movie_id > 2000", "scan2-hash1-res1+distinct"},
	}
	ctx := context.Background()
	for _, c := range cases {
		stmt := sqlparse.MustParse(c.sql)
		_, rows, err := PlannedContext(ctx, db, stmt, Options{}, false)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		_, frame, err := PlannedContext(ctx, db, stmt, Options{}, true)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got, fgot := rows.Shape(), frame.Shape(); got != c.want || fgot != c.want {
			t.Errorf("Shape(%s) = %q (frame %q), want %q", c.sql, got, fgot, c.want)
		}
	}
	_, tripped, err := PlannedContext(ctx, db, sqlparse.MustParse("SELECT m.title FROM movies m, credits c"), Options{MaxIntermediateRows: 1}, false)
	if err == nil || tripped.Shape() != "scan2-cross1" {
		t.Errorf("budget-tripped plan shape = %q (err %v), want scan2-cross1 and an error", tripped.Shape(), err)
	}
	if _, ghost, _ := PlannedContext(ctx, db, sqlparse.MustParse("SELECT * FROM ghost"), Options{}, false); ghost.Shape() != "" {
		t.Errorf("unresolved statement's plan shape = %q, want none", ghost.Shape())
	}
	if got := (Plan{}).Shape(); got != "" {
		t.Errorf("zero plan shape = %q, want none", got)
	}
}

func TestExplainErrors(t *testing.T) {
	db := testDB()
	if _, err := Explain(db, sqlparse.MustParse("SELECT * FROM ghost")); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := Explain(db, sqlparse.MustParse("SELECT nope FROM movies")); err == nil {
		t.Error("unknown column should error")
	}
}
