package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"asqprl/internal/embed"
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
