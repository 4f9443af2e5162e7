// Package metrics implements the evaluation measures of the paper: the
// approximation-set quality metric score(𝒮) (Equation 1), the relative error
// used for aggregate queries (Equation 2), the diversity of the rows within
// one answer (Section 6.2), and precision/recall for the answerability
// estimator.
//
// Equation 1 has two forms here and one definition (Term): Score and its
// variants execute a workload against a materialized set; CoverIndex and
// Tracker keep the same sum incrementally over lineage, which is what the RL
// environments are rewarded by and the score-driven baselines search with.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"asqprl/internal/engine"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// ScoreOptions tunes workload scoring.
type ScoreOptions struct {
	// Parallelism is the number of workers evaluating queries concurrently.
	// Zero means one worker per CPU; values below 1 force serial evaluation.
	// Scores are computed independently per query, so the results are
	// identical for every setting.
	Parallelism int
	// Cache, when non-nil, memoizes full-database result counts across calls
	// (see ReferenceCache). The cache is consulted only when it is bound to
	// the same full database being scored against.
	Cache *ReferenceCache
}

func (o ScoreOptions) workers(n int) int {
	w := o.Parallelism
	if w == 0 {
		w = runtime.NumCPU()
	}
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}

// Score computes Equation 1 of the paper:
//
//	score(𝒮) = (1/|Q|) Σ_q w(q) · min(1, |q(𝒮)| / min(F, |q(𝒯)|))
//
// full is the complete database 𝒯 and approx the materialized approximation
// set 𝒮. Queries that fail on either database contribute zero; every failure
// is collected and returned as a joined error alongside the partial score,
// so callers see all broken queries rather than just the first one.
//
// Note the paper normalizes by |Q| while also using weights that sum to 1;
// with uniform weights this makes the maximum attainable score 1/|Q|. Like
// the paper's own evaluation (which reports scores near 1), we interpret the
// leading 1/|Q| as already folded into the normalized weights.
func Score(full, approx *table.Database, w workload.Workload, frameSize int) (float64, error) {
	return ScoreWith(full, approx, w, frameSize, ScoreOptions{})
}

// ScoreWith is Score with explicit parallelism and reference-count caching.
func ScoreWith(full, approx *table.Database, w workload.Workload, frameSize int, opts ScoreOptions) (float64, error) {
	scores, err := PerQueryScoresWith(full, approx, w, frameSize, opts)
	if scores == nil {
		return 0, err
	}
	var total float64
	for i, q := range w {
		total += q.Weight * scores[i]
	}
	return total, err
}

// PerQueryScores returns each query's unweighted score component
// min(1, |q(S)| / min(F, |q(T)|)). Failed queries score 0; all failures are
// joined (errors.Join) into the returned error, with the scores slice still
// valid. scores is nil only when frameSize is invalid.
func PerQueryScores(full, approx *table.Database, w workload.Workload, frameSize int) ([]float64, error) {
	return PerQueryScoresWith(full, approx, w, frameSize, ScoreOptions{})
}

// PerQueryScoresWith is PerQueryScores with explicit parallelism and
// reference-count caching. Queries fan out across a worker pool; each query's
// score is computed independently, and failures are joined in workload order,
// so the output (scores and error) is identical for every parallelism
// setting.
func PerQueryScoresWith(full, approx *table.Database, w workload.Workload, frameSize int, opts ScoreOptions) ([]float64, error) {
	if frameSize <= 0 {
		return nil, fmt.Errorf("metrics: frame size must be positive, got %d", frameSize)
	}
	scores := make([]float64, len(w))
	qerrs := make([]error, len(w))
	scoreOne := func(i int) {
		q := w[i]
		fullCount, err := opts.Cache.FullCount(full, q)
		if err != nil {
			qerrs[i] = fmt.Errorf("metrics: query %q on full db: %w", q.SQL, err)
			return
		}
		if fullCount == 0 {
			// A query with an empty true answer is trivially answered.
			scores[i] = 1
			return
		}
		approxCount, err := engine.Count(approx, q.Stmt)
		if err != nil {
			qerrs[i] = fmt.Errorf("metrics: query %q on approximation set: %w", q.SQL, err)
			return
		}
		scores[i] = Term(approxCount, fullCount, fullCount, frameSize)
	}
	if workers := opts.workers(len(w)); workers > 1 {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < workers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(w) {
						return
					}
					scoreOne(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range w {
			scoreOne(i)
		}
	}
	return scores, errors.Join(qerrs...)
}

// RelativeError computes |pred − truth| / |truth| (Equation 2). When truth
// is zero, it returns 0 for an exact match and 1 otherwise, matching the
// paper's convention for missing groups.
func RelativeError(pred, truth float64) float64 {
	if truth == 0 {
		if pred == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(pred-truth) / math.Abs(truth)
}

// GroupRelativeError compares two aggregate results keyed by group. Groups
// missing from pred contribute an error of 1 (complete mismatch), matching
// Section 6.4. Extra groups in pred are ignored, as the paper's metric is
// defined over the true groups.
func GroupRelativeError(pred, truth map[string]float64) float64 {
	if len(truth) == 0 {
		return 0
	}
	var total float64
	for g, tv := range truth {
		pv, ok := pred[g]
		if !ok {
			total += 1
			continue
		}
		e := RelativeError(pv, tv)
		if e > 1 {
			e = 1
		}
		total += e
	}
	return total / float64(len(truth))
}

// CoverageError turns Equation 1's per-query coverage score into an error
// for SPJ answers served from an approximation set:
//
//	error = 1 − min(1, served / min(F, truth))
//
// that is, 1 − Term with every row counted. served is the number of rows the
// system answered with, truth the full-database cardinality, and frameSize the
// exploratory frame F (≤ 0 disables the frame cap). Because the approximation set is a subset of the full
// database, cardinalities alone measure coverage — a served answer can miss
// true rows but never invent them. A truth of zero is a perfect answer
// (nothing to cover) unless rows were served anyway, which counts as a
// complete mismatch.
func CoverageError(served, truth, frameSize int) float64 {
	if truth <= 0 {
		if served == 0 {
			return 0
		}
		return 1
	}
	return 1 - Term(served, truth, truth, frameSize)
}

// jaccardDistance is 1 − |a ∩ b| / |a ∪ b|, and 0 for two empty sets.
func jaccardDistance(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return 1 - float64(inter)/float64(union)
}

// IntraResultDiversity measures how diverse the rows *within* one query
// answer are: the mean pairwise Jaccard distance between the rows' value
// sets, as in the paper's Section 6.2 diversity comparison (a full-database
// answer has a fixed intrinsic diversity; a good approximation set should
// preserve it rather than collapse onto near-duplicate tuples). Returns 0
// for fewer than two rows. At most maxRows rows are compared (0 = all).
func IntraResultDiversity(t *table.RowSet, maxRows int) float64 {
	n := t.NumRows()
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	if n < 2 {
		return 0
	}
	sets := make([]map[string]bool, n)
	for i := 0; i < n; i++ {
		s := make(map[string]bool, len(t.Rows[i]))
		for _, v := range t.Rows[i] {
			s[v.Key()] = true
		}
		sets[i] = s
	}
	var total float64
	pairs := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total += jaccardDistance(sets[i], sets[j])
			pairs++
		}
	}
	return total / float64(pairs)
}

// PrecisionRecall compares boolean predictions against truth.
func PrecisionRecall(predicted, actual []bool) (precision, recall float64) {
	var tp, fp, fn int
	for i := range predicted {
		switch {
		case predicted[i] && actual[i]:
			tp++
		case predicted[i] && !actual[i]:
			fp++
		case !predicted[i] && actual[i]:
			fn++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating linearly
// between the two nearest order statistics (0 for empty input).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
