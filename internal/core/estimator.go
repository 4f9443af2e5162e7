package core

import (
	"math"
	"slices"
	"sync"

	"asqprl/internal/embed"
	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
)

// Estimator predicts, for an incoming query, the score the current
// approximation set would achieve on it — without executing the query. It
// implements the inference-time answerability check of Section 4.4: the
// prediction combines the query's embedding-space proximity to the training
// workload with the model's measured performance on those training queries.
type Estimator struct {
	emb       embed.Embedder
	vecs      [][]float64 // training-query embeddings
	norms     []float64   // Σb² of each embedding, summed as embed.Cosine sums it
	cols      []float64   // vecs dimension-major: cols[d*len(vecs)+i] = vecs[i][d], 0 past a short vector
	scores    []float64   // achieved per-query scores on the built set
	neighbors int
}

// NewEstimator builds an estimator from the training queries and their
// measured per-query scores over the approximation set.
func NewEstimator(emb embed.Embedder, stmts []*sqlparse.Select, scores []float64, neighbors int) *Estimator {
	var vecs [][]float64
	for _, s := range stmts {
		vecs = append(vecs, emb.Query(s))
	}
	return newEstimator(emb, vecs, append([]float64(nil), scores...), neighbors)
}

// newEstimator is NewEstimator over the training embeddings themselves.
func newEstimator(emb embed.Embedder, vecs [][]float64, scores []float64, neighbors int) *Estimator {
	e := &Estimator{emb: emb, vecs: vecs, norms: make([]float64, len(vecs)), scores: scores, neighbors: neighbors}
	dim := 0
	for i, v := range vecs {
		e.norms[i] = sumSquares(v)
		dim = max(dim, len(v))
	}
	n := len(vecs)
	e.cols = make([]float64, dim*n)
	for i, v := range vecs {
		for d, x := range v {
			e.cols[d*n+i] = x
		}
	}
	return e
}

// Estimate returns the predicted score for stmt and a confidence in [0, 1].
// The prediction is a similarity-weighted vote of the nearest training
// queries; the confidence is the similarity to the closest one (low
// confidence means the query deviates from the training workload, the signal
// used for interest-drift detection).
func (e *Estimator) Estimate(stmt *sqlparse.Select) (pred, confidence float64) {
	if len(e.vecs) == 0 {
		return 0, 0
	}
	// Aggregates are judged by their SPJ skeleton, as in Section 4.4.
	v := e.emb.Query(stmt)
	nv := sumSquares(v)
	// The k most similar training queries, most similar first, ties to the
	// earlier training query: one pass with a k-sized insertion buffer.
	type neighbor struct {
		sim   float64
		score float64
	}
	k := max(1, min(e.neighbors, len(e.vecs)))
	var buf [16]neighbor
	top := buf[:0]
	if k > len(buf) {
		top = make([]neighbor, 0, k)
	}
	dots := e.dots(v, make([]float64, 0, 256)) // on the stack up to 256 training queries
	for i, tv := range e.vecs {
		sim := 0.0
		if len(v) == len(tv) && len(v) > 0 && nv != 0 && e.norms[i] != 0 {
			sim = max(dots[i]/math.Sqrt(nv*e.norms[i]), 0)
		}
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
		// Sharpen similarities so near-duplicates dominate the vote.
		w := n.sim * n.sim * n.sim
		wsum += w
		ssum += w * n.score
	}
	confidence = top[0].sim
	if wsum <= 0 {
		return 0, confidence
	}
	// Far queries should predict low regardless of neighbor quality:
	// attenuate by the confidence itself.
	return math.Min(1, ssum/wsum) * attenuation(confidence), confidence
}

// dots returns, in buf grown to len(e.vecs), the dot product of v with each
// training vector as embed.Cosine sums it, index by index from +0, but adding
// only v's nonzero coordinates' terms. A skipped term 0·b is ±0; a sum that
// starts at +0 never becomes -0 (x + y is -0 only when both are), and adding
// ±0 to any other value leaves it unchanged, so the sums have the dense
// loop's bits (b finite, as embeddings are). An entry is meaningful only
// where the training vector has v's length; the caller checks that.
func (e *Estimator) dots(v, buf []float64) []float64 {
	n := len(e.vecs)
	// Not append(buf[:0], make(...)...): the race detector's build allocates
	// the make even when buf has room.
	dots := slices.Grow(buf[:0], n)[:n]
	clear(dots)
	if len(v)*n > len(e.cols) {
		return dots // no training vector is as long as v
	}
	for d, x := range v {
		if x == 0 {
			continue
		}
		col := e.cols[d*n : d*n+n]
		for i, b := range col {
			dots[i] += x * b
		}
	}
	return dots
}

// sumSquares is Σv², summed in index order.
func sumSquares(v []float64) (s float64) {
	for _, x := range v {
		s += x * x
	}
	return s
}

// attenuation maps the nearest-neighbor similarity to a multiplier that
// decays predictions for out-of-distribution queries.
func attenuation(conf float64) float64 {
	switch {
	case conf >= 0.8:
		return 1
	case conf <= 0.2:
		return conf
	default:
		// Linear ramp between (0.2, 0.2) and (0.8, 1.0).
		return 0.2 + (conf-0.2)*(0.8/0.6)
	}
}

// DriftDetector accumulates queries that deviate from the training workload
// and signals when fine-tuning should run (Section 4.4): after Count queries
// whose deviation confidence exceeds Confidence. It is safe for concurrent
// use — the serving layer observes queries from many requests at once.
//
// The batch is bounded: with nothing taking it (retraining off) every miss of
// a drifted workload would otherwise stay referenced forever. Once it holds
// Limit() statements the older half is dropped — a fine-tune weights
// recent interest highest anyway — and counted in core/drift/dropped.
type DriftDetector struct {
	// Confidence is the minimum deviation confidence (1 − similarity to the
	// nearest training query) for a query to count as drifted.
	Confidence float64
	// Count is how many drifted queries trigger fine-tuning.
	Count int

	mu      sync.Mutex
	drifted []*sqlparse.Select
}

// driftDropped counts, over every detector, the statements the bound discarded.
var driftDropped = obs.Default().Counter("core/drift/dropped")

// ObserveDetail records a query along with the estimator confidence produced
// for it: drifted reports whether this statement was added to the drift
// batch, triggered whether the batch is at or over the fine-tune threshold
// after it — a level, true on every observation until the batch is taken. The
// WAL uses drifted to log exactly the observations that replay must re-feed
// after a crash.
func (d *DriftDetector) ObserveDetail(stmt *sqlparse.Select, similarityConfidence float64) (drifted, triggered bool) {
	deviation := 1 - similarityConfidence
	d.mu.Lock()
	defer d.mu.Unlock()
	if deviation >= d.Confidence {
		if keep := d.Limit(); len(d.drifted) >= keep {
			n := copy(d.drifted, d.drifted[keep/2:])
			clear(d.drifted[n:])
			d.drifted = d.drifted[:n]
			driftDropped.Add(int64(keep / 2))
		}
		d.drifted = append(d.drifted, stmt)
		drifted = true
	}
	return drifted, len(d.drifted) >= d.Count
}

// Limit is the most drifted statements the detector holds at once: many
// fine-tune batches' worth, never fewer than 1024. WAL recovery re-feeds only
// that many of the newest drift records.
func (d *DriftDetector) Limit() int { return max(1024, 64*d.Count) }

// DriftedCount returns how many deviating queries have accumulated since the
// last reset, without copying them. Serving layers expose it in /stats and
// /qualityz.
func (d *DriftDetector) DriftedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.drifted)
}

// Triggered reports whether the accumulated drifted queries have reached the
// fine-tuning threshold.
func (d *DriftDetector) Triggered() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.drifted) >= d.Count
}

// Take atomically snapshots and clears the accumulated drifted statements,
// provided at least min of them have accumulated (min <= 0 asks for 1). It
// returns nil — and clears nothing — below the threshold. Snapshot and reset
// happen under one mutex hold, so statements observed concurrently by serving
// traffic land either in this batch or in the next one, never in both and
// never lost: the read/mutate race of reading the batch and resetting later
// cannot drop an ObserveDetail that slipped in between.
func (d *DriftDetector) Take(min int) []*sqlparse.Select {
	if min <= 0 {
		min = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.drifted) < min {
		return nil
	}
	out := d.drifted
	d.drifted = nil
	return out
}

// ResetDrift clears the accumulated queries (called after fine-tuning).
func (d *DriftDetector) ResetDrift() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drifted = nil
}
