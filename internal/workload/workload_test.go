package workload

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"asqprl/internal/datagen"
	"asqprl/internal/engine"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

func TestNewNormalizesWeights(t *testing.T) {
	w := MustNew(
		"SELECT * FROM t WHERE a > 1",
		"SELECT * FROM t WHERE a > 2",
		"SELECT * FROM t WHERE a > 3",
	)
	var sum float64
	for _, q := range w {
		sum += q.Weight
		if q.Stmt == nil {
			t.Error("statement not parsed")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty workload should error")
	}
	if _, err := New("NOT SQL"); err == nil {
		t.Error("bad SQL should error")
	}
}

func TestNormalizeZeroWeights(t *testing.T) {
	w := MustNew("SELECT * FROM t", "SELECT * FROM u")
	w[0].Weight, w[1].Weight = 0, 0
	w.Normalize()
	if math.Abs(w[0].Weight-0.5) > 1e-9 {
		t.Errorf("zero weights should become uniform, got %v", w[0].Weight)
	}
}

func TestSplit(t *testing.T) {
	w := MustNew(
		"SELECT * FROM t WHERE a > 1",
		"SELECT * FROM t WHERE a > 2",
		"SELECT * FROM t WHERE a > 3",
		"SELECT * FROM t WHERE a > 4",
		"SELECT * FROM t WHERE a > 5",
	)
	rng := rand.New(rand.NewSource(1))
	train, test := w.Split(0.6, rng)
	if len(train) != 3 || len(test) != 2 {
		t.Errorf("split = %d/%d, want 3/2", len(train), len(test))
	}
	// Both sides normalized.
	var s float64
	for _, q := range train {
		s += q.Weight
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("train weights sum %v", s)
	}
	// Extreme fractions still give non-empty sides.
	train, test = w.Split(0.0, rng)
	if len(train) == 0 {
		t.Error("train should never be empty")
	}
	train, test = w.Split(1.0, rng)
	if len(test) == 0 {
		t.Error("test should never be empty for n >= 2")
	}
}

func TestSplitEmpty(t *testing.T) {
	var w Workload
	train, test := w.Split(0.5, rand.New(rand.NewSource(1)))
	if train != nil || test != nil {
		t.Error("empty split should be nil/nil")
	}
}

func TestMergeAndSubset(t *testing.T) {
	a := MustNew("SELECT * FROM t WHERE a > 1")
	b := MustNew("SELECT * FROM t WHERE a > 2", "SELECT * FROM t WHERE a > 3")
	m := Merge(a, b)
	if len(m) != 3 {
		t.Fatalf("merged = %d", len(m))
	}
	var sum float64
	for _, q := range m {
		sum += q.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("merged weights sum %v", sum)
	}
	sub := m.Subset([]int{0, 2, 99, -1})
	if len(sub) != 2 {
		t.Errorf("subset = %d, want 2", len(sub))
	}
}

func TestSQLsAndStatements(t *testing.T) {
	w := MustNew("SELECT * FROM t WHERE a > 1")
	if len(w.SQLs()) != 1 || len(w.Statements()) != 1 {
		t.Error("accessors wrong")
	}
	if w.SQLs()[0] != "SELECT * FROM t WHERE a > 1" {
		t.Errorf("SQL = %q", w.SQLs()[0])
	}
}

func TestFromStatements(t *testing.T) {
	w := MustNew("SELECT * FROM t WHERE a > 1", "SELECT * FROM t WHERE a > 2")
	w2 := FromStatements(w.Statements())
	if len(w2) != 2 || w2[0].SQL == "" {
		t.Errorf("FromStatements = %+v", w2)
	}
}

// TestGeneratedWorkloadsExecute verifies the dataset-specific generators
// produce parseable queries that run against their datasets and mostly
// return rows.
func TestGeneratedWorkloadsExecute(t *testing.T) {
	cases := []struct {
		name string
		db   *table.Database
		w    Workload
	}{
		{"imdb", datagen.IMDB(0.02, 1), IMDB(15, 2)},
		{"mas", datagen.MAS(0.02, 1), MAS(15, 2)},
		{"flights", datagen.Flights(0.02, 1), Flights(15, 2)},
		{"flights-agg", datagen.Flights(0.02, 1), FlightsAggregates(12, 2)},
	}
	for _, c := range cases {
		nonEmpty := 0
		for _, q := range c.w {
			res, err := engine.ExecuteWith(c.db, q.Stmt, engine.Options{})
			if err != nil {
				t.Errorf("%s: query %q fails: %v", c.name, q.SQL, err)
				continue
			}
			if res.Table.NumRows() > 0 {
				nonEmpty++
			}
		}
		if nonEmpty < 5 {
			t.Errorf("%s: only %d of %d queries returned rows", c.name, nonEmpty, len(c.w))
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := IMDB(10, 5)
	b := IMDB(10, 5)
	for i := range a {
		if a[i].SQL != b[i].SQL {
			t.Fatal("same seed should generate identical workloads")
		}
	}
	c := IMDB(10, 6)
	same := true
	for i := range a {
		if a[i].SQL != c[i].SQL {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestAggregateWorkloadHasGroups(t *testing.T) {
	w := FlightsAggregates(12, 3)
	grouped := 0
	for _, q := range w {
		if !q.Stmt.HasAggregates() {
			t.Errorf("non-aggregate query in aggregate workload: %s", q.SQL)
		}
		if len(q.Stmt.GroupBy) > 0 {
			grouped++
		}
	}
	if grouped == 0 {
		t.Error("no GROUP BY queries generated")
	}
}

func TestReadFile(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "queries.sql")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	w, err := ReadFile(write("-- the hot set\n\n  SELECT * FROM t WHERE a > 1\n--SELECT nothing\nSELECT b FROM t\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.SQLs(); len(got) != 2 || got[0] != "SELECT * FROM t WHERE a > 1" || got[1] != "SELECT b FROM t" {
		t.Errorf("statements = %q, want the two non-comment lines, trimmed", got)
	}
	if w[0].Weight != 0.5 || w[0].Stmt == nil {
		t.Errorf("first query = %+v, want parsed with weight 0.5", w[0])
	}
	bad := write("SELECT * FROM t\n\nSELECT FROM WHERE\n")
	if _, err := ReadFile(bad); err == nil || !strings.Contains(err.Error(), bad+":3:") {
		t.Errorf("bad statement error = %v, want it to name %s:3", err, bad)
	}
	if _, err := ReadFile(write("-- nothing here\n")); err == nil {
		t.Error("a file with no statements should error")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.sql")); err == nil {
		t.Error("a missing file should error")
	}
}

// FuzzReadWorkload holds the workload .sql loader to its contract on any
// bytes: it never panics, and a file it accepts yields exactly its
// non-blank, non-"--" lines (trimmed, CRLF endings included), each of which
// re-parses to the same statement, with weights summing to 1.
func FuzzReadWorkload(f *testing.F) {
	for _, seed := range []string{
		"-- the hot set\n\n  SELECT * FROM t WHERE a > 1\n--SELECT nothing\nSELECT b FROM t\n",
		"SELECT a FROM t\r\n\r\n-- c\r\nSELECT b FROM t WHERE b < 2.5\r\n",
		"SELECT * FROM t\n\nSELECT FROM WHERE\n",
		"-- nothing here\n",
		"\t SELECT x.a, COUNT(*) FROM t x GROUP BY x.a",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "queries.sql")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := ReadFile(path)
		if err != nil {
			return
		}
		var want []string
		for _, line := range strings.Split(string(data), "\n") {
			if sql := strings.TrimSpace(line); sql != "" && !strings.HasPrefix(sql, "--") {
				want = append(want, sql)
			}
		}
		if got := w.SQLs(); !slices.Equal(got, want) {
			t.Fatalf("statements = %q, want the file's non-blank, non-comment lines %q", got, want)
		}
		var total float64
		for _, q := range w {
			again, err := sqlparse.Parse(q.SQL)
			if err != nil {
				t.Fatalf("accepted %q no longer parses: %v", q.SQL, err)
			}
			if again.String() != q.Stmt.String() {
				t.Fatalf("%q re-parses to %q, loaded as %q", q.SQL, again.String(), q.Stmt.String())
			}
			total += q.Weight
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("weights sum to %v, want 1", total)
		}
	})
}
