package sqlparse

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"asqprl/internal/table"
)

func TestParseSimpleSelect(t *testing.T) {
	s, err := Parse("SELECT id, title FROM movies WHERE year > 2000")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Items) != 2 || s.Star {
		t.Fatalf("items = %v, star = %v", s.Items, s.Star)
	}
	if len(s.From) != 1 || s.From[0].Table != "movies" {
		t.Fatalf("from = %v", s.From)
	}
	bin, ok := s.Where.(*Binary)
	if !ok || bin.Op != ">" {
		t.Fatalf("where = %v", s.Where)
	}
}

func TestParseStar(t *testing.T) {
	s := MustParse("SELECT * FROM t")
	if !s.Star || len(s.Items) != 0 {
		t.Errorf("star not parsed: %+v", s)
	}
}

func TestParseDistinct(t *testing.T) {
	s := MustParse("SELECT DISTINCT a FROM t")
	if !s.Distinct {
		t.Error("DISTINCT not parsed")
	}
}

func TestParseAliases(t *testing.T) {
	s := MustParse("SELECT m.title AS name, m.year yr FROM movies AS m, people p")
	if s.Items[0].Alias != "name" || s.Items[1].Alias != "yr" {
		t.Errorf("aliases = %q, %q", s.Items[0].Alias, s.Items[1].Alias)
	}
	if s.From[0].Alias != "m" || s.From[1].Alias != "p" {
		t.Errorf("from aliases = %v", s.From)
	}
	if s.From[0].Name() != "m" {
		t.Errorf("Name() = %q, want alias", s.From[0].Name())
	}
}

func TestParseExplicitJoin(t *testing.T) {
	s := MustParse("SELECT * FROM a JOIN b ON a.x = b.y INNER JOIN c ON b.z = c.w")
	if len(s.Joins) != 2 {
		t.Fatalf("joins = %v", s.Joins)
	}
	if s.Joins[0].Ref.Table != "b" || s.Joins[1].Ref.Table != "c" {
		t.Errorf("join tables = %v, %v", s.Joins[0].Ref, s.Joins[1].Ref)
	}
}

func TestParsePredicates(t *testing.T) {
	cases := []struct {
		sql  string
		want string // type description
	}{
		{"SELECT * FROM t WHERE a IN (1, 2, 3)", "in"},
		{"SELECT * FROM t WHERE a NOT IN (1)", "in-not"},
		{"SELECT * FROM t WHERE a BETWEEN 1 AND 10", "between"},
		{"SELECT * FROM t WHERE a NOT BETWEEN 1 AND 10", "between-not"},
		{"SELECT * FROM t WHERE name LIKE 'abc%'", "like"},
		{"SELECT * FROM t WHERE name NOT LIKE '_x'", "like-not"},
		{"SELECT * FROM t WHERE a IS NULL", "isnull"},
		{"SELECT * FROM t WHERE a IS NOT NULL", "isnull-not"},
	}
	for _, c := range cases {
		s, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		switch w := s.Where.(type) {
		case *In:
			if (c.want == "in-not") != w.Not || !strings.HasPrefix(c.want, "in") {
				t.Errorf("%s: got %T not=%v", c.sql, w, w.Not)
			}
		case *Between:
			if (c.want == "between-not") != w.Not || !strings.HasPrefix(c.want, "between") {
				t.Errorf("%s: got %T not=%v", c.sql, w, w.Not)
			}
		case *Like:
			if (c.want == "like-not") != w.Not || !strings.HasPrefix(c.want, "like") {
				t.Errorf("%s: got %T not=%v", c.sql, w, w.Not)
			}
		case *IsNull:
			if (c.want == "isnull-not") != w.Not || !strings.HasPrefix(c.want, "isnull") {
				t.Errorf("%s: got %T not=%v", c.sql, w, w.Not)
			}
		default:
			t.Errorf("%s: unexpected node %T", c.sql, s.Where)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := s.Where.(*Binary)
	if !ok || or.Op != "OR" {
		t.Fatalf("top should be OR, got %v", s.Where)
	}
	and, ok := or.Right.(*Binary)
	if !ok || and.Op != "AND" {
		t.Fatalf("right of OR should be AND, got %v", or.Right)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s := MustParse("SELECT a + b * c FROM t")
	add, ok := s.Items[0].Expr.(*Binary)
	if !ok || add.Op != "+" {
		t.Fatalf("top should be +, got %v", s.Items[0].Expr)
	}
	mul, ok := add.Right.(*Binary)
	if !ok || mul.Op != "*" {
		t.Fatalf("right of + should be *, got %v", add.Right)
	}
}

func TestParseNegativeNumbersFold(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE a > -5 AND b < -2.5")
	conjs := Conjuncts(s.Where)
	lit := conjs[0].(*Binary).Right.(*Literal)
	if lit.Value.Kind != table.KindInt || lit.Value.Int != -5 {
		t.Errorf("folded literal = %v", lit.Value)
	}
	flit := conjs[1].(*Binary).Right.(*Literal)
	if flit.Value.Kind != table.KindFloat || flit.Value.Float != -2.5 {
		t.Errorf("folded float literal = %v", flit.Value)
	}
}

func TestParseAggregates(t *testing.T) {
	s := MustParse("SELECT year, COUNT(*), SUM(gross), AVG(rating) FROM movies GROUP BY year HAVING COUNT(*) > 3 ORDER BY year DESC LIMIT 10")
	if !s.HasAggregates() {
		t.Fatal("should detect aggregates")
	}
	cnt, ok := s.Items[1].Expr.(*Call)
	if !ok || cnt.Name != "COUNT" || !cnt.Star {
		t.Errorf("COUNT(*) = %v", s.Items[1].Expr)
	}
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Errorf("groupby=%v having=%v", s.GroupBy, s.Having)
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Errorf("orderby = %v", s.OrderBy)
	}
	if s.Limit != 10 {
		t.Errorf("limit = %d", s.Limit)
	}
}

func TestParseStringEscapes(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE name = 'O''Brien'")
	lit := s.Where.(*Binary).Right.(*Literal)
	if lit.Value.Str != "O'Brien" {
		t.Errorf("escaped string = %q", lit.Value.Str)
	}
}

func TestParseBooleansAndNull(t *testing.T) {
	s := MustParse("SELECT TRUE, FALSE, NULL FROM t")
	if s.Items[0].Expr.(*Literal).Value.Bool != true {
		t.Error("TRUE literal")
	}
	if s.Items[1].Expr.(*Literal).Value.Bool != false {
		t.Error("FALSE literal")
	}
	if !s.Items[2].Expr.(*Literal).Value.IsNull() {
		t.Error("NULL literal")
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT * FROM t;"); err != nil {
		t.Errorf("trailing semicolon should be allowed: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a >",
		"SELECT * FROM t WHERE a IN ()",
		"SELECT * FROM t WHERE a BETWEEN 1",
		"SELECT * FROM t WHERE name LIKE 5",
		"SELECT * FROM t LIMIT abc",
		"SELECT * FROM t extra garbage tokens (",
		"SELECT * FROM t WHERE name = 'unterminated",
		"SELECT * FROM t WHERE a ?? b",
		"SELECT COUNT(* FROM t",
		"SELECT * FROM t JOIN u",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT id, title FROM movies WHERE year > 2000",
		"SELECT DISTINCT m.title FROM movies AS m JOIN ratings AS r ON m.id = r.movie_id WHERE r.score >= 8 ORDER BY m.title LIMIT 5",
		"SELECT * FROM a, b WHERE a.x = b.y AND a.z IN (1, 2, 3)",
		"SELECT year, COUNT(*) AS n FROM movies GROUP BY year HAVING COUNT(*) > 2",
		"SELECT * FROM t WHERE a BETWEEN 1 AND 10 OR b LIKE 'x%'",
		"SELECT * FROM t WHERE NOT (a = 1) AND b IS NOT NULL",
		"SELECT a + b * c FROM t WHERE a - 1 >= 2",
	}
	for _, q := range queries {
		s1, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		rendered := s1.String()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", rendered, q, err)
		}
		if s2.String() != rendered {
			t.Errorf("round trip not stable:\n  first:  %s\n  second: %s", rendered, s2.String())
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE a > 1 GROUP BY a HAVING COUNT(*) > 0 ORDER BY a")
	c := s.Clone()
	c.Where.(*Binary).Op = "<"
	if s.Where.(*Binary).Op != ">" {
		t.Error("clone shares Where expression")
	}
	if c.String() == s.String() {
		t.Error("mutated clone should render differently")
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE a = 1 AND b = 2 AND (c = 3 OR d = 4)")
	conjs := Conjuncts(s.Where)
	if len(conjs) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(conjs))
	}
	rejoined := AndAll(conjs)
	s2 := MustParse("SELECT * FROM t WHERE " + rejoined.String())
	if len(Conjuncts(s2.Where)) != 3 {
		t.Error("AndAll/Conjuncts round trip failed")
	}
	if Conjuncts(nil) != nil {
		t.Error("Conjuncts(nil) should be nil")
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(empty) should be nil")
	}
}

func TestColumnsCollection(t *testing.T) {
	s := MustParse("SELECT m.title FROM movies m JOIN r ON m.id = r.mid WHERE r.score > 5 GROUP BY m.title ORDER BY m.title")
	var cols []string
	s.EachColumn(func(c *ColumnRef) { cols = append(cols, c.String()) })
	want := []string{"m.title", "m.id", "r.mid", "r.score", "m.title", "m.title"}
	if !slices.Equal(cols, want) {
		t.Errorf("EachColumn found %v, want %v", cols, want)
	}
}

func TestWalkNilSafe(t *testing.T) {
	Walk(nil, func(Expr) { t.Error("fn should not be called for nil") })
}

// TestParseRandomIdentifiers exercises the lexer/parser with generated
// identifier-ish queries; every generated query must either parse or fail
// cleanly (no panic), and parsed ones must round-trip.
func TestParseRandomIdentifiers(t *testing.T) {
	f := func(col uint8, val int16) bool {
		name := "c" + string(rune('a'+col%26))
		sql := "SELECT " + name + " FROM t WHERE " + name + " > " + itoa(int(val))
		s, err := Parse(sql)
		if err != nil {
			return false
		}
		s2, err := Parse(s.String())
		return err == nil && s2.String() == s.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}
