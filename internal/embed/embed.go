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
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

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

// FNV-1a, 64 bit: the function hash/fnv's New64a computes, folded inline so
// that a token hashes from its parts without an interface, a []byte copy or
// the concatenated string.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds s into the FNV-1a state h: fnv1a(fnv1a(fnvOffset, a), b) is the
// hash of a+b.
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// fnv1aLower is fnv1a over strings.ToLower(s), building no string when s is
// ASCII.
func fnv1aLower(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return fnv1a(h, strings.ToLower(s))
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// token starts a token's hash with its prefix (a constant such as "col:").
func token(prefix string) uint64 { return fnv1a(fnvOffset, prefix) }

// addToken accumulates a weighted token, given as its FNV-1a hash, into vec:
// the hash picks the coordinate and bit 32 the sign.
func addToken(vec []float64, sum uint64, weight float64) {
	idx := int(sum % uint64(len(vec)))
	sign := 1.0
	if (sum>>32)&1 == 1 {
		sign = -1.0
	}
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

// eachToken splits free text into lower-case alphanumeric tokens: it calls fn
// with each run of [a-z0-9_] in strings.ToLower(s), in order, as a substring
// of it. Lowering first keeps a character that lowers to ASCII (the Kelvin
// sign) a token byte; after it every byte of a multi-byte rune is at or above
// utf8.RuneSelf, so splitting bytes splits runes the same way.
func eachToken(s string, fn func(string)) {
	s = strings.ToLower(s)
	start := -1
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '_' || ('a' <= c && c <= 'z') || ('0' <= c && c <= '9') {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			fn(s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		fn(s[start:])
	}
}

// Text embeds free text as a unit vector.
func (e Embedder) Text(s string) []float64 {
	vec := make([]float64, e.dim())
	eachToken(s, func(tok string) { addToken(vec, token(tok), 1) })
	normalize(vec)
	return vec
}

// numericBucket folds into h the coarse log-scale bucket of a numeric value,
// "num:<sign><half-decade>", so nearby literals (e.g. an original predicate
// constant and its relaxed variant) share tokens.
func numericBucket(h uint64, v float64) uint64 {
	h = fnv1a(h, "num:")
	if v == 0 {
		return fnv1a(h, "0")
	}
	if v < 0 {
		h = fnv1a(h, "-")
		v = -v
	}
	exp := int(math.Floor(math.Log10(v) * 2)) // half-decade buckets
	var buf [24]byte
	return fnv1a(h, strconv.AppendInt(buf[:0], int64(exp), 10))
}

// Query embeds a parsed SQL statement. Structural tokens (tables, columns,
// operators) carry more weight than literal values, so queries with the same
// shape but different constants remain close.
func (e Embedder) Query(stmt *sqlparse.Select) []float64 {
	vec := make([]float64, e.dim())
	for _, f := range stmt.From {
		addToken(vec, fnv1aLower(token("tbl:"), f.Table), 3)
	}
	for _, j := range stmt.Joins {
		addToken(vec, fnv1aLower(token("tbl:"), j.Ref.Table), 3)
		addToken(vec, token("join"), 2)
	}
	stmt.EachColumn(func(c *sqlparse.ColumnRef) {
		addToken(vec, fnv1aLower(token("col:"), c.Column), 2)
	})
	addPredicateTokens(vec, stmt.Where)
	for _, j := range stmt.Joins {
		addPredicateTokens(vec, j.On)
	}
	if stmt.HasAggregates() {
		addToken(vec, token("agg"), 1)
	}
	for _, g := range stmt.GroupBy {
		if c, ok := g.(*sqlparse.ColumnRef); ok {
			addToken(vec, fnv1aLower(token("grp:"), c.Column), 1)
		}
	}
	normalize(vec)
	return vec
}

// predToken is the hash of "pred:<lower(column)>:<op>".
func predToken(c *sqlparse.ColumnRef, op string) uint64 {
	return fnv1a(fnv1a(fnv1aLower(token("pred:"), c.Column), ":"), op)
}

// addPredicateTokens walks a predicate tree adding tokens per node.
func addPredicateTokens(vec []float64, expr sqlparse.Expr) {
	sqlparse.Walk(expr, func(n sqlparse.Expr) {
		switch x := n.(type) {
		case *sqlparse.Binary:
			switch x.Op {
			case "AND", "OR":
				addToken(vec, fnv1aLower(token("op:"), x.Op), 0.5)
			case "=", "<>", "<", "<=", ">", ">=":
				if c, ok := x.Left.(*sqlparse.ColumnRef); ok {
					addToken(vec, predToken(c, x.Op), 2)
				}
			}
		case *sqlparse.In:
			if c, ok := x.X.(*sqlparse.ColumnRef); ok {
				addToken(vec, predToken(c, "in"), 2)
			}
			for _, item := range x.List {
				if lit, ok := item.(*sqlparse.Literal); ok {
					addLiteralToken(vec, lit.Value, 1)
				}
			}
		case *sqlparse.Between:
			if c, ok := x.X.(*sqlparse.ColumnRef); ok {
				addToken(vec, predToken(c, "between"), 2)
			}
		case *sqlparse.Like:
			if c, ok := x.X.(*sqlparse.ColumnRef); ok {
				addToken(vec, predToken(c, "like"), 2)
			}
			eachToken(x.Pattern, func(tok string) { addToken(vec, fnv1a(token("lit:"), tok), 1) })
		case *sqlparse.IsNull:
			if c, ok := x.X.(*sqlparse.ColumnRef); ok {
				addToken(vec, predToken(c, "null"), 1)
			}
		case *sqlparse.Literal:
			addLiteralToken(vec, x.Value, 1)
		}
	})
}

func addLiteralToken(vec []float64, v table.Value, weight float64) {
	switch v.Kind {
	case table.KindInt, table.KindFloat:
		addToken(vec, numericBucket(fnvOffset, v.AsFloat()), weight)
	case table.KindString:
		eachToken(v.Str, func(tok string) { addToken(vec, fnv1a(token("lit:"), tok), weight) })
	case table.KindBool:
		addToken(vec, fnv1a(token("lit:"), strconv.FormatBool(v.Bool)), weight)
	}
}

// Row embeds a tuple of the named table. Column names participate as tokens
// ("column=value" and bucketized numerics), mirroring the paper's tabular
// sentence-BERT modification.
func (e Embedder) Row(tableName string, schema table.Schema, row table.Row) []float64 {
	vec := make([]float64, e.dim())
	addToken(vec, fnv1aLower(token("tbl:"), tableName), 2)
	for i, col := range schema {
		if i >= len(row) {
			break
		}
		v := row[i]
		if v.IsNull() {
			continue
		}
		name := fnv1a(fnv1aLower(fnvOffset, col.Name), "=") // "<lower(name)>="
		switch v.Kind {
		case table.KindInt, table.KindFloat:
			addToken(vec, numericBucket(name, v.AsFloat()), 1)
		case table.KindString:
			eachToken(v.Str, func(tok string) { addToken(vec, fnv1a(name, tok), 1) })
		case table.KindBool:
			addToken(vec, fnv1a(name, strconv.FormatBool(v.Bool)), 1)
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
