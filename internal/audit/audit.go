// Package audit is the answer-quality observability layer of ASQP-RL: a
// background shadow auditor that samples a fraction of the approximation-set
// (and degraded) answers the serving layer hands out, re-executes them
// against the full database asynchronously, and turns the comparison into
// per-query-shape relative-error histograms with trace-ID exemplars.
//
// The system's value claim is bounded-error exploratory answering; the
// auditor is what makes that claim observable on live traffic instead of a
// training-time promise. Design constraints, in order:
//
//  1. Audits must never degrade user traffic. Audit workers run outside
//     admission control entirely — they hold no execution slots and no queue
//     tickets — and before touching the full database they consult a
//     capacity gate supplied by the serving layer. When the gate reports no
//     spare capacity (breaker open, in-flight load high, draining), workers
//     back off with doubling sleeps instead of competing with users.
//  2. The hot path pays nothing when auditing is off. Every entry point is
//     nil-receiver safe, so a disabled auditor costs one pointer compare and
//     zero allocations (asserted by BenchmarkAuditDisabledOverhead).
//  3. Everything is bounded: the pending-audit queue, the per-shape stats
//     map, and the SQL→shape index all have fixed caps with FIFO eviction
//     and drop counters — sustained overload sheds audits, never memory.
//
// Per-shape evidence belongs to one publish generation of the served system
// (SetGeneration), so it describes the live set only; the lifetime counters
// and the pooled histogram span every generation.
package audit

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// TargetFunc returns the current ground-truth database and frame size F.
// Returning a nil database (system not loaded yet, or hot-swapped away)
// skips the audit. The serving layer supplies a closure over its atomic
// system pointer so audits always run against the live system.
type TargetFunc func() (db *table.Database, frame int)

// GateFunc reports whether there is spare capacity for one audit execution
// right now. The serving layer's gate returns false while the circuit
// breaker is non-closed, while in-flight load exceeds half the admission
// slots, while requests are queued, or while draining.
type GateFunc func() bool

// Config tunes the shadow auditor. The zero value disables sampling; every
// other field has a production-safe default filled in by normalize.
type Config struct {
	// SampleRate is the fraction of eligible (approximation-served or
	// degraded) answers that are shadow-audited, in [0, 1]. Zero disables
	// auditing.
	SampleRate float64
	// Seed drives the sampling decisions (default 1).
	Seed int64

	// workers sizes the pool of low-priority audit executors for in-package
	// tests; zero means DefaultWorkers.
	workers int
}

// DefaultWorkers is the audit pool size: the auditor is a background
// verifier, not a throughput machine.
const DefaultWorkers = 1

// The auditor's fixed bounds. queueDepth bounds the pending-audit queue: a
// full queue drops the new audit and counts it, so user-facing serving is
// never blocked on audit capacity. auditTimeout bounds one ground-truth
// re-execution. When the capacity gate denies an audit the worker sleeps
// gateBackoff, doubling up to gateMaxBackoff.
const (
	queueDepth     = 64
	auditTimeout   = 10 * time.Second
	gateBackoff    = 25 * time.Millisecond
	gateMaxBackoff = time.Second
)

func (c Config) normalize() Config {
	if c.SampleRate < 0 {
		c.SampleRate = 0
	}
	if c.SampleRate > 1 {
		c.SampleRate = 1
	}
	if c.workers <= 0 {
		c.workers = DefaultWorkers
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Served describes one answer the serving layer handed out, as the auditor
// needs to see it. An SPJ answer is judged by its row count alone; an
// aggregate's result table is read inside Consider (its values) and not
// retained, so no result is pinned by the audit queue.
type Served struct {
	// SQL is the canonical SQL text (sqlparse.Select.String()).
	SQL string
	// TraceID links the audit verdict back to the original request's trace.
	TraceID obs.TraceID
	// Source is "approximation" or "full" (the /query response's source).
	Source string
	// Degraded and Reason mirror the response's degradation tagging.
	Degraded bool
	Reason   string
	// Generation is the publish generation of the system that answered.
	Generation int64
}

// job is one queued shadow audit.
type job struct {
	stmt   *sqlparse.Select
	served Served
	rows   int                // served row count
	values map[string]float64 // served aggregate values (nil for SPJ)
	isAgg  bool
}

// Auditor owns the background shadow-audit pipeline. Create with New, feed
// it with Consider from the serving path, read it via Summary / ShapeReport /
// ObservedError, and Close it during drain. A nil *Auditor is a valid
// disabled auditor: every method is a cheap no-op.
type Auditor struct {
	cfg    Config
	target TargetFunc
	gate   GateFunc

	jobs   chan job
	stop   chan struct{}
	ctx    context.Context // canceled at Close so in-flight audits abort
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool

	rngMu sync.Mutex
	rng   *rand.Rand

	mu       sync.Mutex
	gen      int64 // the generation whose evidence the tables hold
	shapes   map[string]*shapeStats
	order    []string // shape insertion order, for FIFO eviction
	sqlShape map[string]*shapeStats
	sqlOrder []string

	eligible  atomic.Int64 // answers that could have been audited
	sampled   atomic.Int64 // answers chosen for audit
	dropped   atomic.Int64 // sampled but queue full
	completed atomic.Int64
	failed    atomic.Int64 // ground truth could not be computed
	deferrals atomic.Int64 // capacity-gate backoff sleeps
}

// New builds and starts an auditor. target supplies the live full database
// and frame size; gate (optional) supplies the spare-capacity signal. The
// worker pool starts immediately; with SampleRate 0 New returns nil — the
// disabled auditor — so callers can gate construction on a single flag.
func New(target TargetFunc, gate GateFunc, cfg Config) *Auditor {
	cfg = cfg.normalize()
	if cfg.SampleRate == 0 || target == nil {
		return nil
	}
	a := &Auditor{
		cfg:      cfg,
		target:   target,
		gate:     gate,
		jobs:     make(chan job, queueDepth),
		stop:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		shapes:   map[string]*shapeStats{},
		sqlShape: map[string]*shapeStats{},
	}
	a.ctx, a.cancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.workers; i++ {
		a.wg.Add(1)
		go a.worker()
	}
	return a
}

// Consider offers one served answer for shadow auditing. Only
// approximation-served or degraded answers are eligible — a full-database
// non-degraded answer is exact by construction. Eligible answers are sampled
// at the configured rate; sampled ones are enqueued for asynchronous
// verification (the caller's latency is one channel send). It returns true
// when the answer was enqueued. rows is the served row count; agg is the
// served result of an aggregate statement (nil otherwise). Nil-safe and
// allocation-free when disabled.
func (a *Auditor) Consider(stmt *sqlparse.Select, sv Served, rows int, agg *table.RowSet) bool {
	if a == nil || a.closed.Load() {
		return false
	}
	if sv.Source != "approximation" && !sv.Degraded {
		return false
	}
	a.eligible.Add(1)
	a.rngMu.Lock()
	keep := a.rng.Float64() < a.cfg.SampleRate
	a.rngMu.Unlock()
	if !keep {
		return false
	}
	a.sampled.Add(1)
	j := job{stmt: stmt, served: sv, rows: rows}
	if sv.SQL == "" {
		j.served.SQL = stmt.String()
	}
	if stmt.HasAggregates() {
		j.isAgg = true
		j.values = agg.GroupValues(len(stmt.GroupBy) > 0)
	}
	select {
	case a.jobs <- j:
		return true
	default:
		a.dropped.Add(1)
		return false
	}
}

// Close stops accepting new audits, aborts in-flight ground-truth
// executions via context cancellation, and waits for every worker to exit.
// Pending queued audits are discarded (counted as dropped). Close is
// idempotent and nil-safe.
func (a *Auditor) Close() {
	if a == nil || a.closed.Swap(true) {
		return
	}
	a.cancel()
	close(a.stop)
	a.wg.Wait()
	// Count the audits that were queued but never ran.
	for {
		select {
		case <-a.jobs:
			a.dropped.Add(1)
		default:
			return
		}
	}
}

// worker is one low-priority audit executor.
func (a *Auditor) worker() {
	defer a.wg.Done()
	for {
		select {
		case <-a.stop:
			return
		case j := <-a.jobs:
			if !a.waitCapacity() {
				a.dropped.Add(1)
				return
			}
			a.run(j)
		}
	}
}

// waitCapacity blocks until the capacity gate reports spare headroom,
// sleeping with doubling backoff between polls. It returns false when the
// auditor is closing — the audit is abandoned, never forced through.
func (a *Auditor) waitCapacity() bool {
	if a.gate == nil {
		return true
	}
	wait := gateBackoff
	for {
		if a.gate() {
			return true
		}
		a.deferrals.Add(1)
		select {
		case <-a.stop:
			return false
		case <-time.After(wait):
		}
		wait = min(2*wait, gateMaxBackoff)
	}
}

// run executes one shadow audit: re-run the query against the full database
// under a deadline, compute the relative error of the served answer, and
// publish the verdict everywhere the spine surfaces (shape histograms, the
// asqp_audit_relative_error exemplar histogram, the original trace, logs).
func (a *Auditor) run(j job) {
	db, frame := a.target()
	if db == nil {
		a.failed.Add(1)
		return
	}
	// The audit runs under its own root span so the verification work is
	// itself traceable; audited_trace_id links it to the user's request.
	ctx, span := obs.StartSpan(a.ctx, "audit/shadow")
	defer span.End()
	span.Annotate("sql", j.served.SQL)
	span.Annotate("audited_trace_id", j.served.TraceID.String())
	ctx, cancel := context.WithTimeout(ctx, auditTimeout)
	defer cancel()

	shape, err := engine.PlanShape(db, j.stmt)
	if err != nil {
		shape = "unbound"
	}
	relErr, truthRows, err := a.groundTruth(ctx, db, frame, j)
	if err != nil {
		a.failed.Add(1)
		span.MarkError(err.Error())
		obs.LoggerCtx(ctx).Warn("shadow audit failed",
			"sql", j.served.SQL, "audited_trace_id", j.served.TraceID.String(), "err", err)
		return
	}
	a.completed.Add(1)
	a.record(j, shape, relErr)
	span.Annotate("relative_error", relErr)
	span.Annotate("shape", shape)
	span.Event("verdict", "relative_error", relErr, "truth_rows", truthRows, "served_rows", j.rows)

	relativeError.ObserveExemplar(relErr, j.served.TraceID)
	// Attach the verdict to the original request's trace so /tracez shows
	// "this degraded answer was later measured at error X". The amendment is
	// best-effort: only tail-kept traces are still addressable, and the JSONL
	// export (written at span end) is not rewritten — offline joins use the
	// audit span's audited_trace_id instead.
	obs.AmendTrace(j.served.TraceID.String(), obs.SpanEvent{
		Name: "audit",
		At:   time.Now(),
		Attrs: map[string]any{
			"relative_error": relErr,
			"shape":          shape,
		},
	})
}

// groundTruth re-executes the audited statement against the full database
// and returns the served answer's relative error. Aggregates compare value
// maps (Equation 2, per group); SPJ queries compare result cardinality
// against the frame-capped truth (Equation 1 coverage turned into an error).
func (a *Auditor) groundTruth(ctx context.Context, db *table.Database, frame int, j job) (relErr float64, truthRows int, err error) {
	if j.isAgg {
		res, err := engine.ExecuteWithContext(ctx, db, j.stmt, engine.Options{})
		if err != nil {
			return 0, 0, fmt.Errorf("audit: ground truth: %w", err)
		}
		truth := res.Table.GroupValues(len(j.stmt.GroupBy) > 0)
		return metrics.GroupRelativeError(j.values, truth), res.Table.NumRows(), nil
	}
	n, err := engine.CountContext(ctx, db, j.stmt, engine.Options{})
	if err != nil {
		return 0, 0, fmt.Errorf("audit: ground truth: %w", err)
	}
	return metrics.CoverageError(j.rows, n, frame), n, nil
}
