package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"asqprl/internal/cluster"
	"asqprl/internal/embed"
	"asqprl/internal/engine"
	"asqprl/internal/faults"
	"asqprl/internal/metrics"
	"asqprl/internal/obs"
	"asqprl/internal/relax"
	"asqprl/internal/sample"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// RepQuery is one query representative after clustering (Section 4.2). Its
// results are tracked in Preprocessed.Cover as two queries: the original
// medoid statement, whose result tuples define the training reward, and the
// relaxed variant, whose coverage is rewarded at relaxRewardWeight —
// the paper's training on generalized queries (challenge C4) without
// unanchoring the reward from the real workload.
type RepQuery struct {
	// Stmt is the original (SPJ-rewritten) medoid statement.
	Stmt *sqlparse.Select
	// Relaxed is the relaxed variant executed to enlarge the action space.
	Relaxed *sqlparse.Select
	// Weight aggregates the workload weights of the cluster's members.
	Weight float64
	// Orig and Rel index the representative's tracked queries in
	// Preprocessed.Cover. Rel is -1 when the relaxed variant could not be
	// executed or returned nothing.
	Orig, Rel int
}

// Candidate is one action of the RL action space: a group of base rows
// originating from one (or more coinciding) joined result rows.
type Candidate struct {
	Rows []table.RowID
}

// Preprocessed is the output of the data and query pre-processing phase:
// the inputs the RL environments train on.
type Preprocessed struct {
	DB         *table.Database
	Reps       []RepQuery
	Candidates []Candidate
	// Cover indexes the representatives' tracked result tuples (at most
	// MaxTrackedPerQuery per query, a uniform sample beyond that); every
	// environment's reward is a metrics.Tracker over it. A tracked query's
	// weight is its share of the blended reward.
	Cover *metrics.CoverIndex
	// Aggregate workload statistics for reporting.
	ExecutedQueries int
	TotalCandidates int // before subsampling
}

// Preprocess runs the full pipeline of Figure 1(a): relaxation, query
// embedding, representative selection, execution, variational subsampling,
// and action-space construction. Aggregate queries in the workload are
// rewritten to SPJ form first (Section 3).
func Preprocess(db *table.Database, w workload.Workload, cfg Config) (*Preprocessed, error) {
	return PreprocessContext(context.Background(), db, w, cfg)
}

// stageCheck gates entry into one named preprocessing stage: it fires any
// fault armed at core/preprocess/<name> and then honors cancellation, so a
// canceled pipeline stops at the next stage boundary instead of running the
// remaining (possibly expensive) stages to completion.
func stageCheck(ctx context.Context, name string) error {
	if faults.Active() {
		if err := faults.Inject("core/preprocess/" + name); err != nil {
			return fmt.Errorf("core: preprocess %s: %w", name, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: preprocess %s: %w", name, err)
	}
	return nil
}

// PreprocessContext is Preprocess with an explicit context: the preprocessing
// span tree nests under any span already carried by ctx (the training
// pipeline passes its "train" span here), each named stage — relax, embed,
// select, execute, subsample — checks for cancellation at entry, and
// representative executions run under ctx so a cancellation interrupts even a
// long join mid-scan.
func PreprocessContext(ctx context.Context, db *table.Database, w workload.Workload, cfg Config) (*Preprocessed, error) {
	cfg = cfg.normalize()
	if len(w) == 0 {
		return nil, fmt.Errorf("core: empty workload (use GenerateWorkload for the no-workload mode)")
	}
	ctx, root := obs.StartSpan(ctx, "preprocess")
	defer root.End()
	root.Annotate("workload", len(w))
	root.Annotate("k", cfg.K)
	root.Annotate("f", cfg.F)
	rng := rand.New(rand.NewSource(cfg.Seed))
	emb := embed.Embedder{Dim: cfg.EmbedDim}

	// 1. Rewrite aggregates to SPJ and relax (lines 1-2 of Algorithm 1).
	if err := stageCheck(ctx, "relax"); err != nil {
		return nil, err
	}
	_, relaxSpan := obs.StartSpan(ctx, "preprocess/relax")
	originals := make([]*sqlparse.Select, len(w))
	relaxed := make([]*sqlparse.Select, len(w))
	for i, q := range w {
		spj := engine.RewriteAggregateToSPJ(q.Stmt)
		spj.Limit = -1 // cover full results, not a page
		originals[i] = spj
		relaxed[i] = relax.Relax(spj, relax.Options{Factor: cfg.RelaxFactor, DropConjunct: cfg.RelaxDrop})
	}
	relaxSpan.End()

	// Embed the relaxed queries for clustering.
	if err := stageCheck(ctx, "embed"); err != nil {
		return nil, err
	}
	_, embedSpan := obs.StartSpan(ctx, "preprocess/embed")
	vecs := make([][]float64, len(w))
	for i := range w {
		vecs[i] = emb.Query(relaxed[i])
	}
	embedSpan.End()

	// 2. Representative selection by clustering the embedded queries.
	if err := stageCheck(ctx, "select"); err != nil {
		return nil, err
	}
	_, selectSpan := obs.StartSpan(ctx, "preprocess/select")
	numReps := cfg.NumRepresentatives
	if numReps > len(w) {
		numReps = len(w)
	}
	executed := int(float64(numReps) * cfg.TrainFraction)
	if executed < 1 {
		executed = 1
	}
	assign := cluster.KMeans(vecs, numReps, 30, rng)
	medoids := medoidsOf(vecs, assign)

	// Cluster weights: sum of member weights.
	clusterWeight := make([]float64, len(medoids))
	for i := range w {
		ci := assign.Assignments[i]
		if ci < len(clusterWeight) {
			clusterWeight[ci] += w[i].Weight
		}
	}
	// Order representatives by weight and keep the executed fraction
	// (ASQP-Light / Figure 10: the most important queries run first). An
	// empty cluster yields no representative.
	order := make([]int, 0, len(medoids))
	for ci, m := range medoids {
		if m >= 0 {
			order = append(order, ci)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return clusterWeight[order[a]] > clusterWeight[order[b]] })
	if executed < len(order) {
		order = order[:executed]
	}
	selectSpan.Annotate("representatives", len(order))
	selectSpan.End()

	pre := &Preprocessed{DB: db}

	// 3. Execute representatives with lineage. The original medoid query's
	// result tuples define the reward (what the approximation set must
	// cover); the relaxed query's result tuples enlarge the candidate
	// action space beyond the known workload (challenge C4).
	if err := stageCheck(ctx, "execute"); err != nil {
		return nil, err
	}
	execCtx, execSpan := obs.StartSpan(ctx, "preprocess/execute")
	type candInfo struct {
		rows []table.RowID
		sig  []int // representative indices that reference it
	}
	candByKey := map[string]*candInfo{}
	var candOrder []string
	addCandidate := func(rows []table.RowID, qIdx int) {
		key := metrics.TupleKey(rows)
		info := candByKey[key]
		if info == nil {
			info = &candInfo{rows: rows}
			candByKey[key] = info
			candOrder = append(candOrder, key)
		}
		info.sig = append(info.sig, qIdx)
	}
	// track adds one tracked query of representative qIdx (result tuples
	// deduplicated, sampled down to the cap; see metrics.Track) and bundles its
	// tuples into group actions. It returns the tracked query's index.
	var tracked []metrics.TrackedQuery
	track := func(tq metrics.TrackedQuery, qIdx int) int {
		tracked = append(tracked, tq)
		for _, group := range chunkRowSets(tq.Tuples, cfg.ActionGroupSize, rng) {
			addCandidate(group, qIdx)
		}
		return len(tracked) - 1
	}

	for _, ci := range order {
		orig := originals[medoids[ci]]
		_, repSpan := obs.StartSpan(execCtx, "preprocess/execute/representative")
		tq, err := metrics.Track(ctx, db, orig, cfg.MaxTrackedPerQuery, rng)
		if err != nil {
			repSpan.End()
			execSpan.End()
			return nil, fmt.Errorf("core: executing representative %q: %w", orig, err)
		}
		qIdx := len(pre.Reps)
		rep := RepQuery{
			Stmt:    orig,
			Relaxed: relaxed[medoids[ci]],
			Weight:  clusterWeight[ci],
			Orig:    track(tq, qIdx),
			Rel:     -1,
		}

		// Relaxed execution: extra candidates and weakly-rewarded tracked
		// tuples (generalization beyond the workload).
		relTQ, err := metrics.Track(ctx, db, rep.Relaxed, cfg.MaxTrackedPerQuery, rng)
		if err != nil && terminal(err) {
			repSpan.End()
			execSpan.End()
			return nil, fmt.Errorf("core: executing relaxed representative: %w", err)
		}
		if err == nil {
			if rel := track(relTQ, qIdx); len(tracked[rel].Tuples) > 0 {
				rep.Rel = rel
			}
		}
		repSpan.Annotate("rows", tracked[rep.Orig].Total)
		repSpan.End()
		pre.Reps = append(pre.Reps, rep)
		pre.ExecutedQueries++
	}
	execSpan.Annotate("executed", pre.ExecutedQueries)
	execSpan.End()

	// Normalize representative weights.
	var wTotal float64
	for i := range pre.Reps {
		wTotal += pre.Reps[i].Weight
	}
	if wTotal > 0 {
		for i := range pre.Reps {
			pre.Reps[i].Weight /= wTotal
		}
	}
	// A tracked query's weight is its share of the blended reward.
	rw := relaxRewardWeight
	for _, rep := range pre.Reps {
		if rep.Rel < 0 {
			tracked[rep.Orig].Weight = rep.Weight
			continue
		}
		tracked[rep.Orig].Weight = (1 - rw) * rep.Weight
		tracked[rep.Rel].Weight = rw * rep.Weight
	}
	pre.Cover = metrics.NewCoverIndex(tracked, cfg.F)

	// 4. Variational subsampling of the candidate space (Section 4.2): the
	// stratification signature is the set of representatives referencing the
	// candidate, so candidates serving rare queries survive.
	if err := stageCheck(ctx, "subsample"); err != nil {
		return nil, err
	}
	_, subsampleSpan := obs.StartSpan(ctx, "preprocess/subsample")
	pre.TotalCandidates = len(candOrder)
	sigs := make([]string, len(candOrder))
	for i, key := range candOrder {
		sig := candByKey[key].sig
		parts := make([]string, len(sig))
		for j, q := range sig {
			parts[j] = strconv.Itoa(q)
		}
		sigs[i] = strings.Join(parts, ",")
	}
	keep := sample.Variational(sigs, cfg.ActionSpaceSize, rng)
	for _, i := range keep {
		pre.Candidates = append(pre.Candidates, Candidate{Rows: candByKey[candOrder[i]].rows})
	}
	subsampleSpan.Annotate("candidates_in", pre.TotalCandidates)
	subsampleSpan.Annotate("candidates_out", len(pre.Candidates))
	subsampleSpan.End()
	if len(pre.Candidates) == 0 {
		return nil, fmt.Errorf("core: preprocessing produced no candidate actions (all representative queries returned empty results)")
	}
	return pre, nil
}

// medoidsOf picks, per cluster, the member closest to the centroid; an empty
// cluster has none (-1).
func medoidsOf(vecs [][]float64, res cluster.Result) []int {
	medoids := make([]int, 0, len(res.Centroids))
	for ci := range res.Centroids {
		best, bestD := -1, -1.0
		for i, v := range vecs {
			if res.Assignments[i] != ci {
				continue
			}
			d := 0.0
			for j := range v {
				diff := v[j] - res.Centroids[ci][j]
				d += diff * diff
			}
			if best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		medoids = append(medoids, best)
	}
	return medoids
}

// chunkRowSets bundles result-tuple row-sets into groups of up to groupSize
// tuples, unioning their rows. The input order is shuffled so each group
// mixes tuples from across the result rather than consecutive runs.
func chunkRowSets(rowSets [][]table.RowID, groupSize int, rng *rand.Rand) [][]table.RowID {
	if groupSize <= 1 {
		return rowSets
	}
	idx := rng.Perm(len(rowSets))
	var out [][]table.RowID
	for start := 0; start < len(idx); start += groupSize {
		end := start + groupSize
		if end > len(idx) {
			end = len(idx)
		}
		var union []table.RowID
		for _, i := range idx[start:end] {
			union = append(union, rowSets[i]...)
		}
		out = append(out, metrics.Tuple(union))
	}
	return out
}
