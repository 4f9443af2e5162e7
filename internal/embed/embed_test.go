package embed

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// tokens collects what eachToken calls its function with.
func tokens(s string) []string {
	var out []string
	eachToken(s, func(tok string) { out = append(out, tok) })
	return out
}

func TestTokens(t *testing.T) {
	got := tokens("SELECT m.title, COUNT(*) FROM movies_2020!")
	want := []string{"select", "m", "title", "count", "from", "movies_2020"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("token[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTextEmbedUnitNorm(t *testing.T) {
	e := Embedder{}
	v := e.Text("hello world foo bar")
	var n float64
	for _, x := range v {
		n += x * x
	}
	if math.Abs(n-1) > 1e-9 {
		t.Errorf("norm^2 = %v, want 1", n)
	}
	if len(v) != DefaultDim {
		t.Errorf("dim = %d, want %d", len(v), DefaultDim)
	}
}

func TestEmbedDeterministic(t *testing.T) {
	e := Embedder{Dim: 32}
	f := func(s string) bool {
		a := e.Text(s)
		b := e.Text(s)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyTextIsZeroVector(t *testing.T) {
	e := Embedder{}
	v := e.Text("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty text should embed to zero vector")
		}
	}
	if Cosine(v, v) != 0 {
		t.Error("cosine of zero vectors should be 0")
	}
}

func TestQuerySimilarityOrdering(t *testing.T) {
	e := Embedder{}
	base := e.Query(sqlparse.MustParse("SELECT title FROM movies WHERE year > 2000 AND genre = 'drama'"))
	similar := e.Query(sqlparse.MustParse("SELECT title FROM movies WHERE year > 1995 AND genre = 'drama'"))
	different := e.Query(sqlparse.MustParse("SELECT person FROM credits WHERE role = 'director'"))

	simClose := Cosine(base, similar)
	simFar := Cosine(base, different)
	if simClose <= simFar {
		t.Errorf("similar query (%.3f) should be closer than different query (%.3f)", simClose, simFar)
	}
	if simClose < 0.5 {
		t.Errorf("structurally similar queries should be close, got %.3f", simClose)
	}
}

func TestRelaxedQueryStaysClose(t *testing.T) {
	e := Embedder{}
	// Relaxation changes constants slightly; embeddings must stay close
	// because buckets are coarse.
	a := e.Query(sqlparse.MustParse("SELECT * FROM flights WHERE dep_delay > 100"))
	b := e.Query(sqlparse.MustParse("SELECT * FROM flights WHERE dep_delay > 75"))
	if Cosine(a, b) < 0.8 {
		t.Errorf("relaxed variant should stay close, got %.3f", Cosine(a, b))
	}
}

func TestRowEmbedding(t *testing.T) {
	e := Embedder{}
	schema := table.Schema{
		{Name: "title", Kind: table.KindString},
		{Name: "year", Kind: table.KindInt},
		{Name: "rating", Kind: table.KindFloat},
	}
	r1 := table.Row{table.NewString("Alpha"), table.NewInt(1999), table.NewFloat(8.1)}
	r2 := table.Row{table.NewString("Alpha"), table.NewInt(1999), table.NewFloat(8.3)}
	r3 := table.Row{table.NewString("Zeta"), table.NewInt(1950), table.NewFloat(2.0)}

	v1 := e.Row("movies", schema, r1)
	v2 := e.Row("movies", schema, r2)
	v3 := e.Row("movies", schema, r3)
	if Cosine(v1, v2) <= Cosine(v1, v3) {
		t.Errorf("near-identical rows (%.3f) should be closer than different rows (%.3f)",
			Cosine(v1, v2), Cosine(v1, v3))
	}
}

func TestRowEmbeddingHandlesNullsAndShortRows(t *testing.T) {
	e := Embedder{}
	schema := table.Schema{
		{Name: "a", Kind: table.KindString},
		{Name: "b", Kind: table.KindInt},
	}
	vNull := e.Row("t", schema, table.Row{table.Null, table.Null})
	for _, x := range vNull {
		if math.IsNaN(x) {
			t.Error("null row should not produce NaN")
		}
	}
	// Short row (fewer values than schema) must not panic.
	_ = e.Row("t", schema, table.Row{table.NewString("x")})
}

func TestCosineProperties(t *testing.T) {
	e := Embedder{Dim: 16}
	a := e.Text("alpha beta gamma")
	if math.Abs(Cosine(a, a)-1) > 1e-9 {
		t.Errorf("self-cosine = %v, want 1", Cosine(a, a))
	}
	if Cosine(a, []float64{1, 2}) != 0 {
		t.Error("mismatched dims should give 0")
	}
	if Cosine(nil, nil) != 0 {
		t.Error("empty vectors should give 0")
	}
}

// bucket is the hash of v's numeric bucket token.
func bucket(v float64) uint64 { return numericBucket(fnvOffset, v) }

// TestHashTokenIsFNV1a holds the inline hash to hash/fnv's FNV-1a over random
// byte strings (empty, non-ASCII and invalid UTF-8 among them), whole and
// folded from two parts, and the lowering fold to fnv1a over strings.ToLower.
func TestHashTokenIsFNV1a(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs := []string{"", "col:", "tbl:title", "ÄÖÜ straße", "\xff\xfe\x80", "\u212a", "İstanbul", "MiXeD_Case9"}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(40))
		for j := range b {
			switch rng.Intn(3) {
			case 0:
				b[j] = byte(rng.Intn(256))
			default:
				b[j] = byte(' ' + rng.Intn(95))
			}
		}
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		ref := fnv.New64a()
		ref.Write([]byte(s))
		want := ref.Sum64()
		if got := fnv1a(fnvOffset, s); got != want {
			t.Fatalf("fnv1a(%q) = %x, hash/fnv = %x", s, got, want)
		}
		cut := len(s) / 3
		if got := fnv1a(fnv1a(fnvOffset, s[:cut]), []byte(s[cut:])); got != want {
			t.Fatalf("fnv1a(%q) folded from two parts = %x, hash/fnv = %x", s, got, want)
		}
		if got, want := fnv1aLower(fnvOffset, s), fnv1a(fnvOffset, strings.ToLower(s)); got != want {
			t.Fatalf("fnv1aLower(%q) = %x, over strings.ToLower = %x", s, got, want)
		}
	}
}

// TestTokensSplitLikeRunes holds the byte-level splitter to the rune-level
// one it replaced: lower-case the text, keep runs of [a-z0-9_] runes.
func TestTokensSplitLikeRunes(t *testing.T) {
	runes := func(s string) []string {
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
	f := func(s string) bool { return slices.Equal(tokens(s), runes(s)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{"\u212aelvin", "İSTANBUL x", "a\xffb", "Straße_9 ÉTÉ"} {
		if !f(s) {
			t.Errorf("tokens(%q) = %q, rune-level split = %q", s, tokens(s), runes(s))
		}
	}
}

func TestNumericBucketCoarseness(t *testing.T) {
	// Values within the same half-decade share buckets.
	if bucket(100) != bucket(150) {
		t.Error("100 and 150 should share a bucket")
	}
	if bucket(100) == bucket(10000) {
		t.Error("100 and 10000 should not share a bucket")
	}
	if bucket(-5) == bucket(5) {
		t.Error("sign must distinguish buckets")
	}
	if bucket(0) != token("num:0") {
		t.Error("zero bucket")
	}
}

func TestQueryEmbeddingSeparatesTables(t *testing.T) {
	e := Embedder{}
	q1 := e.Query(sqlparse.MustParse("SELECT * FROM movies"))
	q2 := e.Query(sqlparse.MustParse("SELECT * FROM flights"))
	if Cosine(q1, q2) > 0.9 {
		t.Errorf("queries over different tables too close: %.3f", Cosine(q1, q2))
	}
}
