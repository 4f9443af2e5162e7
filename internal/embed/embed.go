// Package embed provides deterministic vector embeddings for SQL queries and
// database tuples. It substitutes for the modified sentence-BERT models the
// paper uses (Section 4.2): a feature-hashing bag-of-tokens embedder that
// preserves token-overlap similarity, which is the property ASQP-RL relies on
// for query-representative clustering and answerability estimation.
//
// Queries embed from their structural tokens (tables, columns, operators) and
// bucketized literals, so a relaxed query lands near its original. Tuples
// embed from "column=value" tokens, incorporating column names as tokens
// exactly as the paper's tabular sentence-BERT variant does.
package embed

import (
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// DefaultDim is the embedding dimensionality used across the system.
const DefaultDim = 64

// Embedder hashes weighted tokens into a fixed-dimension vector.
type Embedder struct {
	// Dim is the embedding dimensionality; zero means DefaultDim.
	Dim int
}

func (e Embedder) dim() int {
	if e.Dim <= 0 {
		return DefaultDim
	}
	return e.Dim
}

// hashToken maps a token to (index, sign) via two FNV hashes.
func hashToken(tok string, dim int) (int, float64) {
	h := fnv.New64a()
	h.Write([]byte(tok))
	sum := h.Sum64()
	idx := int(sum % uint64(dim))
	sign := 1.0
	if (sum>>32)&1 == 1 {
		sign = -1.0
	}
	return idx, sign
}

// addToken accumulates a weighted token into vec.
func addToken(vec []float64, tok string, weight float64) {
	idx, sign := hashToken(tok, len(vec))
	vec[idx] += sign * weight
}

// normalize scales vec to unit L2 norm in place (no-op for zero vectors).
func normalize(vec []float64) {
	var n float64
	for _, v := range vec {
		n += v * v
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range vec {
		vec[i] /= n
	}
}

// Tokens splits free text into lower-case alphanumeric tokens.
func Tokens(s string) []string {
	var out []string
	var cur strings.Builder
	for _, r := range strings.ToLower(s) {
		if r == '_' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			cur.WriteRune(r)
			continue
		}
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// Text embeds free text as a unit vector.
func (e Embedder) Text(s string) []float64 {
	vec := make([]float64, e.dim())
	for _, tok := range Tokens(s) {
		addToken(vec, tok, 1)
	}
	normalize(vec)
	return vec
}

// numericBucket maps a numeric value to a coarse log-scale bucket token so
// nearby literals (e.g. an original predicate constant and its relaxed
// variant) share tokens.
func numericBucket(v float64) string {
	if v == 0 {
		return "num:0"
	}
	sign := ""
	if v < 0 {
		sign = "-"
		v = -v
	}
	exp := int(math.Floor(math.Log10(v) * 2)) // half-decade buckets
	return "num:" + sign + strconv.Itoa(exp)
}

// Query embeds a parsed SQL statement. Structural tokens (tables, columns,
// operators) carry more weight than literal values, so queries with the same
// shape but different constants remain close.
func (e Embedder) Query(stmt *sqlparse.Select) []float64 {
	vec := make([]float64, e.dim())
	for _, f := range stmt.From {
		addToken(vec, "tbl:"+strings.ToLower(f.Table), 3)
	}
	for _, j := range stmt.Joins {
		addToken(vec, "tbl:"+strings.ToLower(j.Ref.Table), 3)
		addToken(vec, "join", 2)
	}
	for _, c := range stmt.Columns() {
		addToken(vec, "col:"+strings.ToLower(c.Column), 2)
	}
	addPredicateTokens(vec, stmt.Where)
	for _, j := range stmt.Joins {
		addPredicateTokens(vec, j.On)
	}
	if stmt.HasAggregates() {
		addToken(vec, "agg", 1)
	}
	for _, g := range stmt.GroupBy {
		if c, ok := g.(*sqlparse.ColumnRef); ok {
			addToken(vec, "grp:"+strings.ToLower(c.Column), 1)
		}
	}
	normalize(vec)
	return vec
}

// addPredicateTokens walks a predicate tree adding tokens per node.
func addPredicateTokens(vec []float64, expr sqlparse.Expr) {
	sqlparse.Walk(expr, func(n sqlparse.Expr) {
		switch x := n.(type) {
		case *sqlparse.Binary:
			switch x.Op {
			case "AND", "OR":
				addToken(vec, "op:"+strings.ToLower(x.Op), 0.5)
			case "=", "<>", "<", "<=", ">", ">=":
				if c, ok := x.Left.(*sqlparse.ColumnRef); ok {
					addToken(vec, "pred:"+strings.ToLower(c.Column)+":"+x.Op, 2)
				}
			}
		case *sqlparse.In:
			if c, ok := x.X.(*sqlparse.ColumnRef); ok {
				addToken(vec, "pred:"+strings.ToLower(c.Column)+":in", 2)
			}
			for _, item := range x.List {
				if lit, ok := item.(*sqlparse.Literal); ok {
					addLiteralToken(vec, lit.Value, 1)
				}
			}
		case *sqlparse.Between:
			if c, ok := x.X.(*sqlparse.ColumnRef); ok {
				addToken(vec, "pred:"+strings.ToLower(c.Column)+":between", 2)
			}
		case *sqlparse.Like:
			if c, ok := x.X.(*sqlparse.ColumnRef); ok {
				addToken(vec, "pred:"+strings.ToLower(c.Column)+":like", 2)
			}
			for _, tok := range Tokens(x.Pattern) {
				addToken(vec, "lit:"+tok, 1)
			}
		case *sqlparse.IsNull:
			if c, ok := x.X.(*sqlparse.ColumnRef); ok {
				addToken(vec, "pred:"+strings.ToLower(c.Column)+":null", 1)
			}
		case *sqlparse.Literal:
			addLiteralToken(vec, x.Value, 1)
		}
	})
}

func addLiteralToken(vec []float64, v table.Value, weight float64) {
	switch v.Kind {
	case table.KindInt, table.KindFloat:
		addToken(vec, numericBucket(v.AsFloat()), weight)
	case table.KindString:
		for _, tok := range Tokens(v.Str) {
			addToken(vec, "lit:"+tok, weight)
		}
	case table.KindBool:
		addToken(vec, "lit:"+v.String(), weight)
	}
}

// Row embeds a tuple of the named table. Column names participate as tokens
// ("column=value" and bucketized numerics), mirroring the paper's tabular
// sentence-BERT modification.
func (e Embedder) Row(tableName string, schema table.Schema, row table.Row) []float64 {
	vec := make([]float64, e.dim())
	addToken(vec, "tbl:"+strings.ToLower(tableName), 2)
	for i, col := range schema {
		if i >= len(row) {
			break
		}
		v := row[i]
		if v.IsNull() {
			continue
		}
		name := strings.ToLower(col.Name)
		switch v.Kind {
		case table.KindInt, table.KindFloat:
			addToken(vec, name+"="+numericBucket(v.AsFloat()), 1)
		case table.KindString:
			for _, tok := range Tokens(v.Str) {
				addToken(vec, name+"="+tok, 1)
			}
		case table.KindBool:
			addToken(vec, name+"="+v.String(), 1)
		}
	}
	normalize(vec)
	return vec
}

// Cosine returns the cosine similarity of two vectors (0 for mismatched or
// zero-norm inputs). Inputs produced by this package are unit vectors, so
// this reduces to a dot product.
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}
