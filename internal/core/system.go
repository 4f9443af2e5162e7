package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"asqprl/internal/embed"
	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/obs"
	"asqprl/internal/rl"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
	"asqprl/internal/workload"
)

// Stats reports what a training run did and how long it took.
type Stats struct {
	SetupTime      time.Duration
	PreprocessTime time.Duration
	TrainTime      time.Duration
	// BuildSetTime (rolling the policy out into the set) and EstimatorTime
	// follow RL; with PreprocessTime and RL's CollectTime and UpdateTime
	// they are where SetupTime goes.
	BuildSetTime    time.Duration
	EstimatorTime   time.Duration
	RL              rl.TrainStats
	Representatives int
	Candidates      int
	SetSize         int
	FineTunes       int
}

// System is a trained ASQP-RL instance: it owns the approximation set, the
// trained agent, and the inference-time estimator, and it answers queries by
// routing them to the approximation set or the full database.
type System struct {
	cfg   Config
	db    *table.Database
	train workload.Workload
	pre   *Preprocessed
	agent *rl.Agent
	set   *table.Subset
	setDB *table.Database
	est   *Estimator
	drift *DriftDetector
	ref   *metrics.ReferenceCache
	stats Stats
}

// scoreOpts returns the system's scoring options: the shared full-database
// reference cache plus the configured parallelism.
func (s *System) scoreOpts() metrics.ScoreOptions {
	return metrics.ScoreOptions{Parallelism: s.cfg.Parallelism, Cache: s.ref}
}

// Train runs the full ASQP-RL pipeline of Algorithm 1 — preprocessing, RL
// training, set construction (Algorithm 2), and estimator fitting — and
// returns a queryable System.
func Train(db *table.Database, w workload.Workload, cfg Config) (*System, error) {
	return TrainContext(context.Background(), db, w, cfg)
}

// TrainContext is Train with cooperative cancellation and panic containment.
// Cancellation during preprocessing aborts with the context's error; once RL
// training has started, cancellation stops training between iterations and
// the partially-trained agent still yields a usable (if weaker) system —
// Stats().RL.Canceled records the interruption. Panics anywhere in the
// training pipeline (including injected ones) are recovered into errors.
func TrainContext(ctx context.Context, db *table.Database, w workload.Workload, cfg Config) (sys *System, err error) {
	defer func() {
		if r := recover(); r != nil {
			sys = nil
			err = fmt.Errorf("core: train panic recovered: %v", r)
			obs.Logger().Error("train panic recovered", "panic", r)
		}
	}()
	cfg = cfg.normalize()
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "train")
	defer span.End()
	obs.Logger().Info("training started",
		"k", cfg.K, "f", cfg.F, "seed", cfg.Seed,
		"episodes", cfg.Episodes, "workload", len(w))

	pre, err := PreprocessContext(ctx, db, w, cfg)
	if err != nil {
		obs.Logger().Error("preprocessing failed", "seed", cfg.Seed, "err", err)
		return nil, err
	}
	preDone := time.Now()

	s := &System{cfg: cfg, db: db, train: w, pre: pre, ref: metrics.NewReferenceCache(db)}
	stateDim, actions := envShape(cfg)
	s.agent, err = rl.NewAgent(cfg.RL, stateDim, actions)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	_, rlSpan := obs.StartSpan(ctx, "train/rl")
	s.trainAgent(ctx)
	rlSpan.Annotate("iterations", s.stats.RL.Iterations)
	rlSpan.Annotate("episodes", s.stats.RL.Episodes)
	rlSpan.End()
	if s.stats.RL.Canceled {
		obs.Logger().Warn("training canceled mid-RL; building set from partial agent",
			"iterations", s.stats.RL.Iterations, "episodes", s.stats.RL.Episodes)
	}
	rlDone := time.Now()
	s.stats.TrainTime = rlDone.Sub(preDone)

	_, buildSpan := obs.StartSpan(ctx, "train/buildset")
	err = s.rebuildSet(0)
	buildSpan.End()
	if err != nil {
		return nil, err
	}
	setDone := time.Now()
	s.stats.BuildSetTime = setDone.Sub(rlDone)
	_, estSpan := obs.StartSpan(ctx, "train/estimator")
	err = s.fitEstimator()
	estSpan.End()
	if err != nil {
		return nil, err
	}
	s.stats.EstimatorTime = time.Since(setDone)
	s.drift = &DriftDetector{Confidence: cfg.DriftConfidence, Count: cfg.DriftCount}

	s.stats.PreprocessTime = preDone.Sub(start)
	s.stats.SetupTime = time.Since(start)
	s.stats.Representatives = len(pre.Reps)
	s.stats.Candidates = len(pre.Candidates)
	obs.Logger().Info("training finished",
		"k", cfg.K, "f", cfg.F, "seed", cfg.Seed,
		"setup", s.stats.SetupTime, "preprocess", s.stats.PreprocessTime,
		"rl", s.stats.TrainTime, "collect", s.stats.RL.CollectTime, "update", s.stats.RL.UpdateTime,
		"build_set", s.stats.BuildSetTime, "estimator", s.stats.EstimatorTime, "set_size", s.stats.SetSize,
		"representatives", s.stats.Representatives, "candidates", s.stats.Candidates,
		"final_return", s.stats.RL.FinalReturn, "iterations", s.stats.RL.Iterations)
	return s, nil
}

// trainAgent runs RL training with optional early stopping on return
// plateau (ASQP-Light), honoring ctx between iterations.
func (s *System) trainAgent(ctx context.Context) {
	env := NewEnvironment(s.pre, s.cfg, 0)
	best := math.Inf(-1)
	sinceBest := 0
	progress := func(iter, episodes int, meanReturn float64) bool {
		if s.cfg.EarlyStopPatience <= 0 {
			return true
		}
		if meanReturn > best+1e-6 {
			best = meanReturn
			sinceBest = 0
			return true
		}
		sinceBest++
		return sinceBest < s.cfg.EarlyStopPatience
	}
	s.stats.RL = s.agent.TrainContext(ctx, env, s.cfg.Episodes, progress)
}

// rebuildSet runs Algorithm 2: rollouts of the learned policy until the
// requested size is reached. Following the algorithm's "action sampled based
// on p(a|s,θ)", it performs one deterministic (argmax) rollout plus several
// stochastic ones and keeps the best-scoring set. reqSize <= 0 uses cfg.K.
func (s *System) rebuildSet(reqSize int) error {
	const stochasticRollouts = 7
	rng := rand.New(rand.NewSource(s.cfg.Seed + 31337))

	var bestSet *table.Subset
	best := math.Inf(-1)
	try := func(greedy bool, rolloutRng *rand.Rand) {
		env := NewEnvironment(s.pre, s.cfg, reqSize)
		state, mask := env.Reset()
		for {
			action := s.agent.SelectAction(state, mask, greedy, rolloutRng)
			if action < 0 {
				break
			}
			next, nextMask, _, done := env.Step(action)
			state, mask = next, nextMask
			if done {
				break
			}
		}
		if score := env.Score(); score > best {
			best = score
			bestSet = env.Subset()
		}
	}
	try(true, nil)
	for i := 0; i < stochasticRollouts; i++ {
		try(false, rng)
	}

	s.set = bestSet
	s.setDB = s.set.Materialize(s.db)
	s.stats.SetSize = s.set.Size()
	return nil
}

// fitEstimator measures per-query scores of the training workload on the
// built set and fits the answerability estimator on them. A statement that
// cannot be scored is an error: an estimator fitted on a zero that stands for
// "failed" would route around the set for the wrong reason.
func (s *System) fitEstimator() error {
	emb := embed.Embedder{Dim: s.cfg.EmbedDim}
	scores, err := metrics.PerQueryScoresWith(s.db, s.setDB, s.train, s.cfg.F, s.scoreOpts())
	if err != nil {
		return fmt.Errorf("core: fit estimator: %w", err)
	}
	s.est = NewEstimator(emb, s.train.Statements(), scores, estimatorNeighbors)
	return nil
}

// Set returns the approximation set (row references into the full database).
func (s *System) Set() *table.Subset { return s.set }

// SetDB returns the materialized approximation set as a database.
func (s *System) SetDB() *table.Database { return s.setDB }

// Config returns the system's normalized configuration.
func (s *System) Config() Config { return s.cfg }

// Stats returns training statistics.
func (s *System) Stats() Stats { return s.stats }

// Estimator exposes the answerability estimator.
func (s *System) Estimator() *Estimator { return s.est }

// DB returns the full database 𝒯. Shadow auditors use it as the ground
// truth for verifying approximation-set answers.
func (s *System) DB() *table.Database { return s.db }

// Drift exposes the interest-drift detector (Section 4.4).
func (s *System) Drift() *DriftDetector { return s.drift }

// SetDrift overrides DriftConfidence and DriftCount (a zero keeps the
// current value) in the system's configuration and its detector, so Save and
// Clone carry them too.
func (s *System) SetDrift(confidence float64, count int) {
	if confidence > 0 {
		s.cfg.DriftConfidence = confidence
	}
	if count > 0 {
		s.cfg.DriftCount = count
	}
	s.drift.mu.Lock()
	s.drift.Confidence, s.drift.Count = s.cfg.DriftConfidence, s.cfg.DriftCount
	s.drift.mu.Unlock()
}

// BuildSet re-runs inference (Algorithm 2) for a different requested size
// without retraining, replacing the system's approximation set.
func (s *System) BuildSet(reqSize int) (*table.Subset, error) {
	if err := s.ensurePreprocessed(); err != nil {
		return nil, err
	}
	if err := s.rebuildSet(reqSize); err != nil {
		return nil, err
	}
	if err := s.fitEstimator(); err != nil {
		return nil, err
	}
	return s.set, nil
}

// QueryResult is the outcome of answering one user query.
type QueryResult struct {
	// Table holds the result rows.
	Table *table.RowSet
	// Frame is the answer of QueryFrameContext, which sets it instead of
	// Table: the result before any output row is built (see engine.Frame,
	// also for how long it stays valid).
	Frame *engine.Frame
	// FromApproximation is true when the approximation set answered the
	// query; false when the system fell back to the full database.
	FromApproximation bool
	// Estimated is the statement the estimator scored and the drift detector
	// observed: the query itself, or an aggregate's SPJ rewrite (Section 4.4).
	// It is shared, not copied; nothing may mutate it.
	Estimated *sqlparse.Select
	// PredictedScore is the estimator's score prediction for the query.
	PredictedScore float64
	// Confidence is the estimator's similarity confidence.
	Confidence float64
	// DriftTriggered is true when, after this query, the drift batch is at or
	// over the fine-tune threshold — on every query until the batch is taken,
	// not only the one that reached it; callers should fine-tune (see
	// FineTuneFromDrift).
	DriftTriggered bool
	// Drifted is true when this query itself was added to the drift batch
	// (its deviation cleared the detector's confidence bar). The serving
	// layer logs exactly these observations to the WAL so recovery can
	// rebuild the detector state after a crash.
	Drifted bool
	// Degraded is true when the full answer could not be produced and the
	// result is a best-effort substitute (approximation-set answer after a
	// full-DB failure, or the partial rows before a row-budget trip). A
	// degraded result is never silently returned as exact.
	Degraded bool
	// DegradedReason names the guard or fault behind the degradation:
	// "rows", "fault", or "breaker" (the caller routed around the full
	// database via QueryOptions.SkipFull).
	DegradedReason string
	// FullAttempted is true when the full-database rung actually executed
	// (successfully or not). Serving-layer circuit breakers use it to
	// attribute failures to the expensive path rather than the set.
	FullAttempted bool
	// FullFailure names what stopped the full-database rung: a guard
	// ("deadline", "rows", "canceled"), "statement" (the statement cannot
	// run; see engine.ErrStatement), or "fault"; empty when the full
	// database answered or was never attempted.
	FullFailure string

	// plan is the bound plan of the execution whose rows are served.
	plan engine.Plan
}

// Shape is the plan shape (engine.Plan.Shape) of the execution that
// answered, rendered on each call; "" when nothing answered.
func (r *QueryResult) Shape() string { return r.plan.Shape() }

// QueryOptions bounds one query's execution and routes its ladder (see
// QueryStmtContext). Its deadline is the context's.
type QueryOptions struct {
	// MaxRows bounds the number of result rows (0 = unlimited). When the
	// budget trips, the rows produced so far may be served tagged Degraded.
	MaxRows int
	// SkipFull routes around the full-database rung entirely: queries the
	// estimator would send to the full database are answered from the
	// approximation set, tagged Degraded with reason "breaker". Serving
	// layers set it while their circuit breaker is open, so a sick full
	// database is never hit with more doomed work.
	SkipFull bool
	// SkipDrift keeps this query out of the drift detector. Serving layers
	// set it when live-traffic drift observation is disabled by operator
	// flag, so synthetic traffic (health probes, load tests) cannot poison
	// the fine-tuning signal.
	SkipDrift bool
}

// Query answers sql following the inference flow of Figure 1(b): the
// estimator predicts whether the approximation set can answer it; if so, the
// query runs on the approximation set, otherwise on the full database.
func (s *System) Query(sql string) (*QueryResult, error) {
	return s.QueryContext(context.Background(), sql, QueryOptions{})
}

// QueryContext is Query with a context, per-query resource guards, and a
// graceful-degradation ladder (see QueryStmtContext).
func (s *System) QueryContext(ctx context.Context, sql string, opts QueryOptions) (*QueryResult, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.QueryStmtContext(ctx, stmt, opts)
}

// QueryStmtContext answers stmt under ctx and opts, degrading gracefully
// instead of failing hard. The ladder enters each rung at most once:
//
//  1. If the estimator predicts the approximation set answers the query, run
//     there first (the normal fast path).
//  2. On failure — or when the estimator routes past the set — run on the
//     full database, once: execution over an immutable database is
//     deterministic, so running it again would fail the same way.
//  3. If the full database cannot answer either, serve a best-effort
//     substitute tagged Degraded with the guard or fault that stopped it
//     ("breaker" when SkipFull kept it from running): the partial rows its
//     row-budget trip produced, or else the approximation set's answer —
//     run now when rung 1 never ran, or the partial rows rung 1 left.
//
// Deadline expiry and cancellation abort the ladder immediately — the caller
// is gone, so degrading would only waste cycles; the returned error wraps
// engine.ErrDeadline / engine.ErrCanceled. So does an error of the statement
// itself (engine.ErrStatement): it fails the same way on every rung, and it
// belongs to the client. Panics anywhere in the serve path (including
// injected ones) are recovered into errors, never crashing the serving
// process.
func (s *System) QueryStmtContext(ctx context.Context, stmt *sqlparse.Select, opts QueryOptions) (*QueryResult, error) {
	return s.answer(ctx, stmt, opts, false)
}

// QueryFrameContext is QueryStmtContext for a caller that writes the answer
// somewhere other than a table.RowSet (the server's JSON encoder): the same
// ladder, with QueryResult.Frame set instead of Table.
func (s *System) QueryFrameContext(ctx context.Context, stmt *sqlparse.Select, opts QueryOptions) (*QueryResult, error) {
	return s.answer(ctx, stmt, opts, true)
}

func (s *System) answer(ctx context.Context, stmt *sqlparse.Select, opts QueryOptions, frames bool) (*QueryResult, error) {
	// Trace the ladder: the span joins the caller's trace (the serving
	// layer's request span) or opens one for direct core callers. Every
	// degradation decision below lands on it as a span event, so a tail
	// trace explains *why* a query was slow or degraded, not just that it
	// was.
	ctx, span := obs.StartSpan(ctx, "core/query")
	defer span.End()
	// Aggregates are estimated through their SPJ rewrite (Section 4.4).
	estStmt := stmt
	if stmt.HasAggregates() {
		estStmt = engine.RewriteAggregateToSPJ(stmt)
	}
	pred, conf := s.est.Estimate(estStmt)
	out := &QueryResult{Estimated: estStmt, PredictedScore: pred, Confidence: conf}
	if !opts.SkipDrift {
		out.Drifted, out.DriftTriggered = s.drift.ObserveDetail(estStmt, conf)
	}

	eopts := engine.Options{MaxOutputRows: opts.MaxRows}
	useApprox := pred >= EstimatorThreshold
	if span != nil {
		span.AnnotateStringer("sql", stmt) // rendered if a snapshot reads it
		span.AnnotateFloat("predicted_score", pred)
		span.AnnotateFloat("confidence", conf)
		if useApprox { // a constant boxes without allocating
			span.Annotate("route", "approximation")
		} else {
			span.Annotate("route", "full")
		}
	}

	// Rung 1: approximation set, when the estimator trusts it.
	var err error
	var setRes *engine.Result // the set's answer, for rung 3
	var setPlan engine.Plan
	if useApprox {
		setRes, setPlan, err = s.runGuarded(ctx, s.setDB, stmt, eopts, rungApprox, frames)
		if err == nil {
			out.FromApproximation = true
			out.Table, out.Frame, out.plan = setRes.Table, setRes.Frame, setPlan
			return out, nil
		}
		if final(err) {
			span.MarkError(err.Error())
			return out, err
		}
		// setRes now holds the rows before a row-budget trip, if any.
		span.Event("guard_trip", "rung", "approx", "kind", failureKind(err))
	}

	// Rung 2: full database, once. With SkipFull set (circuit breaker open)
	// the rung is skipped and the ladder drops straight to the substitute.
	reason := "breaker"
	if opts.SkipFull {
		span.Event("breaker_skip", "rung", "full")
	} else {
		out.FullAttempted = true
		res, plan, fullErr := s.runGuarded(ctx, s.db, stmt, eopts, rungFull, frames)
		if fullErr == nil {
			out.Table, out.Frame, out.plan = res.Table, res.Frame, plan
			return out, nil
		}
		err, reason = fullErr, failureKind(fullErr)
		out.FullFailure = reason
		if final(err) {
			span.MarkError(err.Error())
			return out, err
		}
		span.Event("guard_trip", "rung", "full", "kind", reason)
		if res != nil { // a row-budget trip carries the rows before it
			out.Degraded, out.DegradedReason = true, reason
			out.Table, out.Frame, out.plan = res.Table, res.Frame, plan
			span.MarkDegraded(reason)
			span.Event("degraded", "reason", reason, "substitute", "partial_rows")
			return out, nil
		}
	}

	// Rung 3: the approximation set's answer, tagged degraded: run now when
	// rung 1 was skipped, or the partial rows rung 1 left.
	if !useApprox {
		res, plan, approxErr := s.runGuarded(ctx, s.setDB, stmt, eopts, rungApprox, frames)
		if approxErr == nil {
			setRes, setPlan = res, plan
		} else if err == nil || final(approxErr) {
			err = approxErr
		}
	}
	if setRes != nil {
		out.Degraded, out.DegradedReason = true, reason
		out.FromApproximation = true
		out.Table, out.Frame, out.plan = setRes.Table, setRes.Frame, setPlan
		span.MarkDegraded(reason)
		span.Event("degraded", "reason", reason, "substitute", "approximation")
		return out, nil
	}
	span.MarkError(err.Error())
	return out, err
}

// failureKind names what stopped a rung: the guard (engine.GuardKind),
// "statement" for an error of the statement itself, otherwise "fault".
func failureKind(err error) string {
	if kind := engine.GuardKind(err); kind != "" {
		return kind
	}
	if errors.Is(err, engine.ErrStatement) {
		return "statement"
	}
	return "fault"
}

// The span names of the ladder's two rungs.
const (
	rungApprox = "core/rung/approx"
	rungFull   = "core/rung/full"
)

// runGuarded executes stmt on db under ctx (engine.PlannedContext), converting
// panics into errors so a malformed plan or injected fault cannot crash the
// serving process. Each rung runs under its own child span (rungApprox or
// rungFull), which the engine's operator spans attach to; panic recoveries
// land on it as events.
func (s *System) runGuarded(ctx context.Context, db *table.Database, stmt *sqlparse.Select, eopts engine.Options, rungSpan string, frames bool) (res *engine.Result, plan engine.Plan, err error) {
	ctx, rspan := obs.StartSpan(ctx, rungSpan)
	defer rspan.End()
	defer func() {
		if r := recover(); r != nil {
			res, plan, err = nil, engine.Plan{}, fmt.Errorf("core: query panic recovered: %v", r)
			rspan.Event("panic_recovered", "panic", fmt.Sprint(r))
			rspan.MarkError(fmt.Sprintf("panic: %v", r))
			obs.LoggerCtx(ctx).Error("query panic recovered", "panic", r)
		}
	}()
	return engine.PlannedContext(ctx, db, stmt, eopts, frames)
}

// terminal reports whether the caller is gone: the deadline expired or the
// query was canceled.
func terminal(err error) bool {
	return errors.Is(err, engine.ErrDeadline) || errors.Is(err, engine.ErrCanceled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// final reports whether err ends the ladder at once: the caller is gone, or
// the statement itself cannot run, and no other rung would do better.
func final(err error) bool {
	return terminal(err) || errors.Is(err, engine.ErrStatement)
}

// ScoreOn evaluates the approximation set against a workload using
// Equation 1 with the system's frame size.
func (s *System) ScoreOn(w workload.Workload) (float64, error) {
	return metrics.ScoreWith(s.db, s.setDB, w, s.cfg.F, s.scoreOpts())
}

// FineTune merges new queries into the training workload, re-runs
// preprocessing, and continues training the existing agent for extraEpisodes.
// The network shapes are fixed by the config, so the weights load; but
// re-preprocessing draws new representatives and new candidates in a new
// order, so every state and action slot those weights were trained on now
// means something else (ROADMAP item 3). The approximation set and estimator
// are rebuilt.
func (s *System) FineTune(newQueries workload.Workload, extraEpisodes int) error {
	return s.FineTuneContext(context.Background(), newQueries, extraEpisodes)
}

// FineTuneContext is FineTune with cooperative cancellation: preprocessing
// stops at stage boundaries and RL training stops between iterations.
func (s *System) FineTuneContext(ctx context.Context, newQueries workload.Workload, extraEpisodes int) error {
	if len(newQueries) == 0 {
		return fmt.Errorf("core: FineTune requires at least one query")
	}
	ctx, span := obs.StartSpan(ctx, "finetune")
	defer span.End()
	obs.Logger().Info("fine-tuning started",
		"k", s.cfg.K, "f", s.cfg.F, "seed", s.cfg.Seed,
		"new_queries", len(newQueries), "extra_episodes", extraEpisodes)
	s.train = workload.Merge(s.train, newQueries)
	pre, err := PreprocessContext(ctx, s.db, s.train, s.cfg)
	if err != nil {
		return err
	}
	s.pre = pre
	if extraEpisodes <= 0 {
		extraEpisodes = s.cfg.Episodes / 2
	}
	env := NewEnvironment(s.pre, s.cfg, 0)
	_, rlSpan := obs.StartSpan(ctx, "finetune/rl")
	s.stats.RL = s.agent.TrainContext(ctx, env, extraEpisodes, nil)
	rlSpan.End()
	s.stats.FineTunes++
	if err := s.rebuildSet(0); err != nil {
		return err
	}
	if err := s.fitEstimator(); err != nil {
		return err
	}
	s.drift.ResetDrift()
	obs.Logger().Info("fine-tuning finished",
		"k", s.cfg.K, "f", s.cfg.F, "seed", s.cfg.Seed,
		"set_size", s.stats.SetSize, "fine_tunes", s.stats.FineTunes)
	return nil
}

// FineTuneFromDrift fine-tunes on the drift detector's accumulated queries.
// It is a no-op returning false when no drift has been detected. The drifted
// statements are snapshotted and cleared in one atomic detector operation, so
// concurrent queries observing into the same detector can never have a
// statement both consumed here and dropped by a later reset. When the
// fine-tune fails the taken statements are not restored — the caller decides
// whether to retry on the same batch (see internal/retrain) or wait for
// fresh drift to accumulate.
func (s *System) FineTuneFromDrift(extraEpisodes int) (bool, error) {
	drifted := s.drift.Take(s.drift.Count)
	if drifted == nil {
		return false, nil
	}
	if err := s.FineTune(workload.FromStatements(drifted), extraEpisodes); err != nil {
		return false, err
	}
	return true, nil
}

// TrainingWorkload returns a copy of the system's current training workload
// (the original workload plus everything merged in by fine-tuning).
// Validation gates sample held-back slices of it to check a retrained
// candidate for catastrophic forgetting.
func (s *System) TrainingWorkload() workload.Workload {
	return append(workload.Workload(nil), s.train...)
}

// Clone returns an independent copy of the system built through the CRC-framed
// snapshot path (SaveBytes -> LoadBytes): the clone shares only the immutable
// full database with the receiver — training workload, approximation set,
// agent networks, estimator, drift detector, and reference cache are all its
// own. A clone can therefore be fine-tuned, rebuilt, and discarded while the
// original keeps serving queries; this is the isolation primitive behind
// background retraining. Preprocessing artifacts are not copied (the snapshot
// does not carry them) and are rebuilt lazily on the clone when fine-tuning
// needs them.
func (s *System) Clone() (*System, error) {
	data, err := s.SaveBytes()
	if err != nil {
		return nil, fmt.Errorf("core: clone: %w", err)
	}
	clone, err := LoadBytes(s.db, data)
	if err != nil {
		return nil, fmt.Errorf("core: clone: %w", err)
	}
	return clone, nil
}
