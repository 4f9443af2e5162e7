package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"asqprl/internal/datagen"
	"asqprl/internal/embed"
	"asqprl/internal/engine"
	"asqprl/internal/relax"
	"asqprl/internal/sqlparse"
	"asqprl/internal/workload"
)

// estimateByFullSort is Estimate as it was first written — score every
// training vector, sort all of them, read the top k — with the sort made
// stable so that ties have a defined order: the earlier training query first.
func estimateByFullSort(e *Estimator, v []float64) (pred, confidence float64) {
	type neighbor struct{ sim, score float64 }
	ns := make([]neighbor, len(e.vecs))
	for i, tv := range e.vecs {
		ns[i] = neighbor{sim: math.Max(embed.Cosine(v, tv), 0), score: e.scores[i]}
	}
	sort.SliceStable(ns, func(a, b int) bool { return ns[a].sim > ns[b].sim })
	var wsum, ssum float64
	for _, n := range ns[:min(e.neighbors, len(ns))] {
		w := n.sim * n.sim * n.sim
		wsum += w
		ssum += w * n.score
	}
	if wsum <= 0 {
		return 0, ns[0].sim
	}
	return math.Min(1, ssum/wsum) * attenuation(ns[0].sim), ns[0].sim
}

// TestEstimateTopKMatchesFullSort pins the one-pass top-k selection to the
// full stable sort, bit for bit, on random training vectors that include exact
// ties (duplicated vectors with different scores, and the many vectors whose
// negative cosine clamps to 0), for k below, at and above the stack buffer and
// above the number of vectors.
func TestEstimateTopKMatchesFullSort(t *testing.T) {
	emb := embedderForTest()
	queries := testWorkload()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		k := []int{1, 3, 5, 16, 17, 40}[rng.Intn(6)]
		var vecs [][]float64
		var scores []float64
		for i := 0; i < n; i++ {
			var vec []float64
			switch {
			case i > 0 && rng.Intn(3) == 0:
				vec = vecs[rng.Intn(i)] // an exact tie with an earlier training query
			case rng.Intn(4) == 0:
				vec = emb.Query(queries[rng.Intn(len(queries))].Stmt) // a real neighbour
			default:
				vec = make([]float64, emb.Dim)
				for j := range vec {
					vec[j] = rng.NormFloat64()
				}
			}
			vecs = append(vecs, vec)
			scores = append(scores, rng.Float64())
		}
		e := newEstimator(emb, vecs, scores, k)
		stmt := queries[rng.Intn(len(queries))].Stmt
		wantPred, wantConf := estimateByFullSort(e, emb.Query(stmt))
		if pred, conf := e.Estimate(stmt); pred != wantPred || conf != wantConf {
			t.Fatalf("trial %d (n=%d, k=%d): Estimate = (%v, %v), full stable sort = (%v, %v)",
				trial, n, e.neighbors, pred, conf, wantPred, wantConf)
		}
	}
}

// TestEstimateMatchesCosine holds Estimate, which sums each training vector's
// Σb² once when the estimator is built and the query's Σa² once per call, to
// the reference that calls embed.Cosine for every pair, bit for bit: over the
// training workload itself and 500 generated statements it never saw.
func TestEstimateMatchesCosine(t *testing.T) {
	emb := embedderForTest()
	train := testWorkload()
	rng := rand.New(rand.NewSource(9))
	scores := make([]float64, len(train))
	for i := range scores {
		scores[i] = rng.Float64()
	}
	e := NewEstimator(emb, train.Statements(), scores, estimatorNeighbors)
	for i, stmt := range append(train.Statements(), workload.IMDB(500, 13).Statements()...) {
		wantPred, wantConf := estimateByFullSort(e, emb.Query(stmt))
		if pred, conf := e.Estimate(stmt); pred != wantPred || conf != wantConf {
			t.Fatalf("statement %d %q: Estimate = (%v, %v), through embed.Cosine = (%v, %v)", i, stmt, pred, conf, wantPred, wantConf)
		}
	}
}

// estimateDense is Estimate before its neighbour pass went sparse: every
// training vector's dot product with the query over all coordinates, in index
// order, then the same top-k buffer and vote.
func estimateDense(e *Estimator, stmt *sqlparse.Select) (pred, confidence float64) {
	if len(e.vecs) == 0 {
		return 0, 0
	}
	v := e.emb.Query(stmt)
	nv := sumSquares(v)
	cosine := func(a, b []float64, na, nb float64) float64 {
		if len(a) != len(b) || len(a) == 0 || na == 0 || nb == 0 {
			return 0
		}
		var dot float64
		for i := range a {
			dot += a[i] * b[i]
		}
		return dot / math.Sqrt(na*nb)
	}
	type neighbor struct {
		sim   float64
		score float64
	}
	k := max(1, min(e.neighbors, len(e.vecs)))
	top := make([]neighbor, 0, k)
	for i, tv := range e.vecs {
		sim := max(cosine(v, tv, nv, e.norms[i]), 0)
		if len(top) == k && sim <= top[k-1].sim {
			continue
		}
		if len(top) < k {
			top = append(top, neighbor{})
		}
		j := len(top) - 1
		for ; j > 0 && top[j-1].sim < sim; j-- {
			top[j] = top[j-1]
		}
		top[j] = neighbor{sim: sim, score: e.scores[i]}
	}
	var wsum, ssum float64
	for _, n := range top {
		w := n.sim * n.sim * n.sim
		wsum += w
		ssum += w * n.score
	}
	confidence = top[0].sim
	if wsum <= 0 {
		return 0, confidence
	}
	return math.Min(1, ssum/wsum) * attenuation(confidence), confidence
}

// servingEstimator is an estimator at the serving bench's shape: the 120
// statements the generator writes for seed 1 (15 % aggregates), embedded in 64
// dimensions, with random scores.
func servingEstimator(tb testing.TB) (*Estimator, workload.Workload) {
	tb.Helper()
	train, err := GenerateWorkload(datagen.IMDB(0.02, 1), GenOptions{N: 120, AggregateProb: 0.15, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	scores := make([]float64, len(train))
	for i := range scores {
		scores[i] = rng.Float64()
	}
	return NewEstimator(embed.Embedder{Dim: 64}, train.Statements(), scores, estimatorNeighbors), train
}

// sameEstimate fails unless Estimate answers stmt with the dense loop's bits.
func sameEstimate(t *testing.T, e *Estimator, stmt *sqlparse.Select, what string) {
	t.Helper()
	pred, conf := e.Estimate(stmt)
	wantPred, wantConf := estimateDense(e, stmt)
	if math.Float64bits(pred) != math.Float64bits(wantPred) || math.Float64bits(conf) != math.Float64bits(wantConf) {
		t.Fatalf("%s %q: Estimate = (%v, %v), dense loop = (%v, %v)", what, stmt, pred, conf, wantPred, wantConf)
	}
}

// zeroEmbeddingStatement is a statement whose embedding is all zeros: two
// tables whose tbl: tokens land on one coordinate with opposite signs.
func zeroEmbeddingStatement(t *testing.T, emb embed.Embedder) *sqlparse.Select {
	t.Helper()
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			stmt := mustParseCore(t, fmt.Sprintf("SELECT * FROM t%d, t%d", i, j))
			zero := true
			for _, x := range emb.Query(stmt) {
				zero = zero && x == 0
			}
			if zero {
				return stmt
			}
		}
	}
	t.Fatal("no pair of table names cancels")
	return nil
}

// TestEstimateMatchesDenseCosine holds Estimate, whose dot products add only
// the query's nonzero coordinates, to the dense loop it replaced, bit for bit:
// on the training statements, another generated workload, their relaxations
// (widened and with a conjunct dropped) and SPJ rewrites, a statement that
// embeds to zeros, and estimators whose training vectors are shorter than,
// longer than or mixed with the query's.
func TestEstimateMatchesDenseCosine(t *testing.T) {
	e, train := servingEstimator(t)
	asked, err := GenerateWorkload(datagen.IMDB(0.02, 1), GenOptions{N: 120, AggregateProb: 0.3, JoinProb: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var stmts []*sqlparse.Select
	for _, s := range append(train.Statements(), asked.Statements()...) {
		stmts = append(stmts, s, relax.Relax(s, relax.Options{}), relax.Relax(s, relax.Options{Factor: 2, DropConjunct: true}))
		if s.HasAggregates() {
			stmts = append(stmts, engine.RewriteAggregateToSPJ(s))
		}
	}
	stmts = append(stmts, zeroEmbeddingStatement(t, e.emb))
	for i, s := range stmts {
		sameEstimate(t, e, s, fmt.Sprintf("statement %d", i))
	}

	short := newEstimator(embed.Embedder{Dim: 32}, e.vecs, e.scores, e.neighbors) // queries embed in 32 of 64
	long := newEstimator(embed.Embedder{Dim: 96}, e.vecs, e.scores, e.neighbors)  // queries embed in 96 of 64
	mixed := make([][]float64, len(e.vecs))
	for i, v := range e.vecs {
		mixed[i] = v
		if i%3 == 0 {
			mixed[i] = embed.Embedder{Dim: 32}.Query(train[i].Stmt)
		}
	}
	for name, m := range map[string]*Estimator{
		"short":   short,
		"long":    long,
		"mixed":   newEstimator(e.emb, mixed, e.scores, e.neighbors),
		"mixed32": newEstimator(embed.Embedder{Dim: 32}, mixed, e.scores, e.neighbors),
	} {
		for i, s := range stmts[:60] {
			sameEstimate(t, m, s, fmt.Sprintf("%s estimator, statement %d", name, i))
		}
	}
}

// FuzzEstimate: for any statement that parses, Estimate has the dense loop's
// bits.
func FuzzEstimate(f *testing.F) {
	e, train := servingEstimator(f)
	for _, sql := range train.SQLs()[:20] {
		f.Add(sql)
	}
	f.Add("SELECT * FROM t0, t1")
	f.Add("SELECT Ä.x FROM Title Ä WHERE Ä.K\u212a LIKE '%ünï%' AND y IN (1, -2.5e300, 'a b', TRUE)")
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			return
		}
		sameEstimate(t, e, stmt, "fuzzed statement")
	})
}
