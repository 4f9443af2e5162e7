package sqlparse_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// A statement's canonical string (Select.String) is the WAL record, the audit
// key, the span annotation and what recovery re-parses, and Parse takes its
// input from the network. Two properties hold the two together: Parse returns —
// a statement or an error, promptly — on any bytes, and a statement it returns
// renders to a string that parses back to the same tree.

// fuzzSeeds are the shapes the repository's own traffic takes — the bench's
// miss, wide and hit templates (bench/stream.go) — and the corners of the
// grammar: quoting, signs, precedence that only parentheses keep, keywords in
// odd case, every predicate form negated, and malformed input.
var fuzzSeeds = []string{
	"SELECT * FROM movie_info WHERE title_id BETWEEN 3513 AND 3613 AND id >= 17",
	"SELECT * FROM movie_info JOIN title ON movie_info.title_id = title.id WHERE title.production_year = 1987 AND movie_info.info_type = 'budget' AND movie_info.value > 42",
	"SELECT * FROM cast_info JOIN title ON cast_info.title_id = title.id WHERE title.id BETWEEN 9000 AND 9100 AND cast_info.position <= 10",
	"SELECT * FROM movie_info JOIN title ON movie_info.title_id = title.id JOIN cast_info ON cast_info.title_id = title.id WHERE title.id BETWEEN 9000 AND 9100 AND cast_info.position <= 10",
	"SELECT * FROM cast_info JOIN title ON cast_info.title_id = title.id JOIN movie_info ON movie_info.title_id = title.id WHERE title.production_year = 2004 AND title.genre = 'drama' AND cast_info.role = 'actor' AND movie_info.info_type = 'gross'",
	"SELECT title.genre, COUNT(*) FROM movie_info JOIN title ON movie_info.title_id = title.id WHERE movie_info.title_id BETWEEN 100 AND 900 AND title.production_year >= 1950 GROUP BY title.genre",
	"SELECT cast_info.role, AVG(cast_info.position) FROM cast_info JOIN title ON cast_info.title_id = title.id WHERE title.production_year = 1969 AND title.rating >= 6.4 AND cast_info.name_id >= 4243 GROUP BY cast_info.role",
	"SELECT movie_info.info_type, AVG(movie_info.value) FROM movie_info JOIN title ON movie_info.title_id = title.id WHERE title.production_year BETWEEN 1955 AND 2024 AND title.kind = 'movie' AND title.id >= 3513 GROUP BY movie_info.info_type",
	"SELECT role, SUM(position) FROM cast_info WHERE position > 5 AND position BETWEEN 17 AND 28 GROUP BY role LIMIT 50",
	"SELECT * FROM title WHERE rating > 7 LIMIT 50",
	"select distinct t.title as name, -t.rating from title t, name n where not (t.id = n.id or t.kind like 'mov%') order by name desc, t.id limit 3;",
	"SELECT a, COUNT(b) AS n FROM t GROUP BY a HAVING SUM(b) / COUNT(*) > 3 AND MAX(b) - MIN(b) >= 0 ORDER BY n DESC",
	"SELECT * FROM t WHERE s = 'it''s' AND u = '' AND v NOT IN (1, -2, 3.5, 'x', NULL, TRUE) AND w IS NOT NULL AND x NOT LIKE '_a%' AND y NOT BETWEEN -1 AND 1e3",
	"SELECT a - (b - c), a - b - c, a / (b * c), -(a + 1), - - 5, -(-5), 1 - -1, NOT NOT a, (a < b) = (c < d), (a AND b) OR c, a AND (b OR c) FROM t",
	"SELECT -9223372036854775807, 9223372036854775807, 1e308, 0.1, 1e-320, 00012, 12.0 FROM t",
	"SELECT COUNT(*), SUM(*), MIN(a + MAX(b)), AVG((a)) FROM t WHERE (((a))) = ((1))",
	"SELECT * FROM t WHERE a IN (b + 1, c * (d - 2)) AND (a BETWEEN b AND c) IS NULL AND a + 1 BETWEEN 2 AND 3 AND NOT a IS NULL",
	"SELECT é, \"x\" FROM t WHERE a = 'é\x00\xff'",
	"SELECT * FROM t WHERE a = 1 AND",
	"SELECT FROM WHERE",
	"SELECT * FROM t WHERE a = 'unterminated",
	"SELECT * FROM t LIMIT -1",
	"SELECT 1e999 FROM t",
	"SELECT 99999999999999999999 FROM t",
	"",
}

// checkRoundTrip asserts Parse(stmt.String()) ≡ stmt: the rendering parses, to a
// deeply equal tree, which renders to the same string.
func checkRoundTrip(t *testing.T, stmt *sqlparse.Select) {
	t.Helper()
	text := stmt.String()
	again, err := sqlparse.Parse(text)
	if err != nil {
		t.Fatalf("rendering does not parse: %v\nrendering: %s", err, text)
	}
	if !reflect.DeepEqual(stmt, again) {
		t.Fatalf("rendering parses to a different statement\nrendering: %s\nrendered again: %s", text, again)
	}
	if text2 := again.String(); text2 != text {
		t.Fatalf("rendering is not a fixed point\nfirst:  %s\nsecond: %s", text, text2)
	}
}

// FuzzParse: on any input Parse neither panics nor takes long (a request body
// is at most 1 MB, and nesting is bounded by maxExprDepth), and every statement
// it accepts survives the round trip through its canonical string.
func FuzzParse(f *testing.F) {
	for _, sql := range fuzzSeeds {
		f.Add(sql)
	}
	f.Add("SELECT " + strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000) + " FROM t")
	f.Add("SELECT * FROM t WHERE " + strings.Repeat("NOT ", 2000) + "a")
	f.Add("SELECT * FROM t WHERE a = 1" + strings.Repeat(" AND a = 1", 1500))
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 1<<20 {
			t.Skip("over the server's body limit")
		}
		start := time.Now()
		stmt, err := sqlparse.Parse(sql)
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("Parse took %v on %d bytes", d, len(sql))
		}
		if err != nil {
			return
		}
		checkRoundTrip(t, stmt)
	})
}

// TestRoundTripGeneratedWorkloads runs the round-trip property over every
// statement the repository generates for itself: the query generator behind
// training and the bench's hit traffic (joins and aggregates turned up), and
// the hand-written workloads of the three datasets.
func TestRoundTripGeneratedWorkloads(t *testing.T) {
	var sqls []string
	for seed, db := range map[int64]func(float64, int64) *table.Database{1: datagen.IMDB, 2: datagen.MAS, 3: datagen.Flights} {
		w, err := core.GenerateWorkload(db(0.02, seed), core.GenOptions{N: 400, MaxPredicates: 4, JoinProb: 0.5, AggregateProb: 0.3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sqls = append(sqls, w.SQLs()...)
	}
	for _, w := range []workload.Workload{workload.IMDB(100, 1), workload.MAS(100, 2), workload.Flights(100, 3), workload.FlightsAggregates(100, 4)} {
		sqls = append(sqls, w.SQLs()...)
	}
	if len(sqls) < 1000 {
		t.Fatalf("only %d generated statements", len(sqls))
	}
	for _, sql := range sqls {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("generated statement does not parse: %v\n%s", err, sql)
		}
		checkRoundTrip(t, stmt)
	}
}

// TestParseBoundsNesting: a megabyte of parentheses, NOTs or signs is refused at
// the depth limit, not recursed into, and an operator chain — parsed by a loop,
// but as high a tree as it is long — is refused once parsed; at the limit all
// of them parse, and so do their renderings.
func TestParseBoundsNesting(t *testing.T) {
	const limit = 1000 // maxExprDepth
	nested := map[string]func(n int) string{
		"parentheses": func(n int) string {
			return "SELECT " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + " FROM t"
		},
		"NOT":   func(n int) string { return "SELECT * FROM t WHERE " + strings.Repeat("NOT ", n) + "a" },
		"minus": func(n int) string { return "SELECT " + strings.Repeat("- ", n) + "a FROM t" },
		"call": func(n int) string {
			return "SELECT " + strings.Repeat("SUM(", n) + "a" + strings.Repeat(")", n) + " FROM t"
		},
		"AND chain": func(n int) string { return "SELECT * FROM t WHERE a" + strings.Repeat(" AND a", n) },
		"sum chain": func(n int) string { return "SELECT a" + strings.Repeat(" + a", n) + " FROM t" },
	}
	for name, gen := range nested {
		stmt, err := sqlparse.Parse(gen(limit - 1))
		if err != nil {
			t.Errorf("%s nested %d deep: %v", name, limit-1, err)
			continue
		}
		checkRoundTrip(t, stmt)
		start := time.Now()
		if _, err := sqlparse.Parse(gen(1 << 18)); err == nil || !strings.Contains(err.Error(), "levels") {
			t.Errorf("%s nested 2^18 deep: %v, want the depth limit", name, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s nested 2^18 deep took %v to refuse", name, d)
		}
	}
}
