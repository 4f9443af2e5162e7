// Package server is the hardened query-serving layer of ASQP-RL: an
// HTTP/JSON front door over core.System designed so that overload, faults,
// and restarts never produce hangs, panics, or silent wrong answers.
//
// The pipeline every request passes through:
//
//	admission control -> answer cache -> circuit breaker routing -> core degradation ladder
//
// Admission control bounds concurrency (MaxInFlight execution slots) and
// queueing (QueueDepth waiters); anything beyond that is shed immediately
// with 503 + Retry-After instead of piling up. The answer cache of the live
// generation answers a repeated statement's clean approximation-set answer
// without parsing or executing it, and still feeds drift, the WAL and the
// auditor. The circuit breaker watches the full-database fallback rung: after
// breakerTrips consecutive guard trips it opens and queries are answered from
// the approximation set tagged Degraded, with half-open probes on a jittered,
// doubling cooldown. Graceful drain (Shutdown) stops admitting, waits for
// in-flight queries up to the drain deadline, then cancels them via context —
// the listener goroutine and every request goroutine are accounted for.
package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"asqprl/internal/audit"
	"asqprl/internal/core"
	"asqprl/internal/diag"
	"asqprl/internal/engine"
	"asqprl/internal/obs"
	"asqprl/internal/retrain"
	"asqprl/internal/slo"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
	"asqprl/internal/wal"
)

// Config tunes the serving layer. The zero value is usable: New fills every
// unset field from DefaultConfig.
type Config struct {
	// Addr is the listen address (use ":0" in tests to pick a free port).
	Addr string
	// MaxInFlight is the number of queries executing concurrently
	// (0 = 2×CPUs).
	MaxInFlight int
	// QueueDepth is how many admitted requests may wait for an execution
	// slot before new ones are shed (0 = MaxInFlight, negative = none).
	QueueDepth int
	// DefaultTimeout is the per-query deadline when the client does not send
	// one. Clients cannot disable it — only shorten it, or extend it up to
	// maxTimeout.
	DefaultTimeout time.Duration
	// MaxRows caps per-query result rows — the serving layer always bounds
	// result size.
	MaxRows int
	// DrainTimeout bounds how long Shutdown waits for in-flight queries
	// before canceling them.
	DrainTimeout time.Duration
	// Seed drives the breaker's cooldown jitter and audit sampling.
	Seed int64
	// AuditSample is the fraction of approximation-served/degraded answers
	// shadow-audited against the full database (0 disables auditing, the
	// default — the hot path then pays zero overhead).
	AuditSample float64
	// DriftObserve feeds each served query into core's interest-drift
	// detector (Section 4.4). Off by default for in-process servers so
	// synthetic traffic cannot poison the fine-tuning signal; asqp-serve
	// enables it by default via -drift-observe.
	DriftObserve bool
	// Retrain configures the drift-triggered background retraining
	// controller (internal/retrain). Disabled unless Retrain.Enabled; it
	// usually wants DriftObserve on too, or only forced retrains ever fire.
	Retrain retrain.Config
	// WAL, when non-nil, durably records served statements, drift
	// observations, and retrain lifecycle events. Served/drift records use
	// the async (group-synced) append so the request path never waits on an
	// fsync; retrain events use the durable append, and a persisted swap or
	// rollback checkpoints the log against the snapshot generation.
	WAL *wal.Log

	// SLOAvailability is the availability objective in (0,1) — the target
	// fraction of requests answered without degradation, error, or shedding
	// (e.g. 0.999). 0 disables the availability SLO.
	SLOAvailability float64
	// SLOLatencyP99 is the p99 request-latency target; requests slower than
	// this burn error budget against a 0.99 objective. 0 disables.
	SLOLatencyP99 time.Duration
	// SLOQualityP95 is the p95 relative-error target for shadow-audited
	// answers; audits above it burn budget against a 0.95 objective. It needs
	// auditing on (AuditSample > 0) to see data. 0 disables. It alerts only:
	// retrain rollback reads the auditor's per-generation evidence, armed by
	// AuditSample alone.
	SLOQualityP95 float64
	// SLOClock injects the one clock the sampler, the SLO engine and the
	// flight recorder read, for deterministic tests. When set, the
	// background sampler ticker is NOT started: an in-package test advances
	// its clock and calls SampleNow on the server's sampler (the ts field),
	// and each sample re-evaluates the SLOs.
	SLOClock func() time.Time
	// DiagDir enables the flight recorder: on SLO fast-burn (or
	// /debugz?capture=1) a diagnostic bundle is captured here. Empty
	// disables — the nil recorder adds nothing to any path.
	DiagDir string

	// trips and cooldown run the circuit breaker at other settings for
	// in-package tests; zero means breakerTrips and breakerCooldown.
	trips    int
	cooldown time.Duration
	// noAnswerCache serves every request through the ladder, for in-package
	// tests that compare a cache-cold server with a warm one.
	noAnswerCache bool
}

// maxTimeout caps the deadline a client may ask for with timeout_ms.
const maxTimeout = 30 * time.Second

// DefaultConfig returns the value every unset Config field takes. It is the
// one place the serving defaults are written: New fills from it and
// asqp-serve registers its flags over it, so -h prints what New applies.
func DefaultConfig() Config {
	return Config{
		Addr:           "localhost:8080",
		DefaultTimeout: 2 * time.Second,
		MaxRows:        100000,
		DrainTimeout:   10 * time.Second,
		Seed:           1,
		Retrain:        retrain.DefaultConfig(),
	}
}

// Validate rejects values no deployment can mean: an objective outside
// (0,1), a sampling fraction outside [0,1], a negative duration or count.
// Zero stays "unset" throughout (the default, or off). asqp-serve calls it
// on its flag values so a typo is one line on stderr, not a panic in New.
func (c Config) Validate() error {
	if c.SLOAvailability < 0 || c.SLOAvailability >= 1 {
		return fmt.Errorf("availability objective %v outside (0,1)", c.SLOAvailability)
	}
	if c.AuditSample < 0 || c.AuditSample > 1 {
		return fmt.Errorf("audit sample fraction %v outside [0,1]", c.AuditSample)
	}
	if c.SLOQualityP95 < 0 {
		return fmt.Errorf("quality SLO target %v is negative", c.SLOQualityP95)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"query timeout", c.DefaultTimeout},
		{"drain timeout", c.DrainTimeout},
		{"latency SLO target", c.SLOLatencyP99},
		{"retrain timeout", c.Retrain.Timeout},
		{"retrain rollback window", c.Retrain.RollbackWindow},
	} {
		if d.v < 0 {
			return fmt.Errorf("%s %s is negative", d.name, d.v)
		}
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"max in-flight", c.MaxInFlight},
		{"max rows", c.MaxRows},
	} {
		if n.v < 0 {
			return fmt.Errorf("%s %d is negative", n.name, n.v)
		}
	}
	return nil
}

func (c Config) normalize() Config {
	d := DefaultConfig()
	if c.Addr == "" {
		c.Addr = d.Addr
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.NumCPU()
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	} else if c.QueueDepth == 0 {
		c.QueueDepth = c.MaxInFlight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = d.DefaultTimeout
	}
	if c.MaxRows <= 0 {
		c.MaxRows = d.MaxRows
	}
	if c.trips <= 0 {
		c.trips = breakerTrips
	}
	if c.cooldown <= 0 {
		c.cooldown = breakerCooldown
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = d.DrainTimeout
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Server serves approximate query answers over HTTP with overload protection
// and a graceful lifecycle. Create with New, attach a system (at construction
// or later via SetSystem — readiness is gated on it), Start, and eventually
// Shutdown.
type Server struct {
	cfg  Config
	live atomic.Pointer[liveSystem]
	adm  *admission
	brk  *breaker
	aud  *audit.Auditor // nil when AuditSample is 0 — the hot path stays free
	ret  *retrain.Controller
	wal  *wal.Log // nil when durability is off — appends are no-ops

	// ts/sloEng/rec are the windowed-telemetry sampler, burn-rate engine,
	// and flight recorder (all nil unless configured — nil receivers no-op).
	ts     *obs.TimeSeries
	sloEng *slo.Engine
	rec    *diag.Recorder

	// recovering gates readiness while the WAL tail replays at startup;
	// recInfo holds the finished replay's stats for /stats.
	recovering atomic.Bool
	recMu      sync.Mutex
	recInfo    *RecoveryInfo

	// pubMu serializes SetSystem publishes so generation numbers are strictly
	// monotonic even when a swap and a rollback race with an operator reload.
	pubMu sync.Mutex
	gen   int64

	// cacheHits and cacheMisses count answer-cache lookups over every
	// generation, for /stats.
	cacheHits, cacheMisses atomic.Int64

	httpSrv    *http.Server
	ln         net.Listener
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	started    atomic.Bool
	serveErr   error
	done       chan struct{}
}

// liveSystem pairs the served system with its publish generation and the
// generation's answer cache. Responses carry the generation so a client (or a
// chaos test) can prove which system produced an answer across a hot swap —
// every response comes from exactly one generation, never a blend.
type liveSystem struct {
	sys   *core.System
	gen   int64
	cache *answerCache
}

// New builds a server around sys (which may be nil: the server then reports
// not-ready until SetSystem is called, e.g. while a snapshot loads).
func New(sys *core.System, cfg Config) *Server {
	cfg = cfg.normalize()
	s := &Server{
		cfg:  cfg,
		adm:  newAdmission(cfg.MaxInFlight, cfg.QueueDepth),
		brk:  newBreaker(cfg.trips, cfg.cooldown, cfg.Seed),
		wal:  cfg.WAL,
		done: make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	// The shadow auditor borrows spare capacity, never admission slots: its
	// gate denies work while draining, while the breaker is not closed (the
	// full database is already suspected sick — the last thing it needs is
	// audit traffic), while in-flight load exceeds half the slots, or while
	// any user request is queued. Denied workers back off; user traffic can
	// never be shed by an audit.
	s.aud = audit.New(
		func() (*table.Database, int) {
			sys, _ := s.System()
			if sys == nil {
				return nil, 0
			}
			return sys.DB(), sys.Config().F
		},
		func() bool {
			return !s.draining.Load() &&
				s.brk.currentState() == breakerClosed &&
				s.adm.queued.Load() == 0 &&
				2*s.adm.inFlight() <= cfg.MaxInFlight
		},
		audit.Config{SampleRate: cfg.AuditSample, Seed: cfg.Seed},
	)
	if sys != nil {
		s.SetSystem(sys) // after the auditor: it collects per generation
	}
	s.initSLO()
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
	}
	if cfg.Retrain.Enabled {
		hooks := retrain.Hooks{
			Incumbent: func() *core.System {
				sys, _ := s.System()
				return sys
			},
			Publish: s.SetSystem,
			Quality: s.aud.WorstShapeP95,
		}
		if s.wal != nil {
			hooks.Journal = s.journalRetrain
		}
		s.ret = retrain.New(cfg.Retrain, hooks)
		s.ret.Start()
	}
	return s
}

// SetSystem attaches (or replaces) the system and flips the server ready.
// Each publish gets the next generation number; in-flight queries finish on
// the system they loaded, new ones see the replacement — the swap itself is
// one atomic pointer store, so no request is ever dropped or blended. The
// auditor's per-shape evidence and the answer cache restart with the new
// generation before any request can see it.
func (s *Server) SetSystem(sys *core.System) {
	s.pubMu.Lock()
	s.gen++
	s.aud.SetGeneration(s.gen)
	s.live.Store(&liveSystem{sys: sys, gen: s.gen, cache: newAnswerCache()})
	s.pubMu.Unlock()
}

// System returns the live system (nil before any SetSystem) and its publish
// generation.
func (s *Server) System() (*core.System, int64) {
	ls := s.live.Load()
	if ls == nil {
		return nil, 0
	}
	return ls.sys, ls.gen
}

// Ready reports whether the server would pass a readiness probe. Recovery
// (WAL tail replay at startup) holds readiness down until the replayed state
// is live — a load balancer never routes to a server still rebuilding its
// drift evidence.
func (s *Server) Ready() bool {
	return s.live.Load() != nil && !s.draining.Load() && !s.recovering.Load()
}

// Handler returns the HTTP handler (also used directly by tests). The drain
// deadline cancels the requests it serves through Start, whose contexts descend
// from the server's base context; a caller serving it otherwise brings its own.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/qualityz", s.handleQualityz)
	mux.HandleFunc("/retrainz", s.handleRetrainz)
	mux.HandleFunc("/sloz", s.handleSloz)
	mux.HandleFunc("/debugz", s.handleDebugz)
	return mux
}

// Start binds the listen address and serves in a background goroutine. It
// returns the bound address (useful with ":0") or the bind error.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.started.Store(true)
	go func() {
		defer close(s.done)
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.serveErr = err
			obs.Logger().Error("serve failed", "addr", ln.Addr().String(), "err", err)
		}
	}()
	obs.Logger().Info("serving", "addr", ln.Addr().String(),
		"max_inflight", s.cfg.MaxInFlight, "queue", s.cfg.QueueDepth,
		"query_timeout", s.cfg.DefaultTimeout, "drain_timeout", s.cfg.DrainTimeout)
	return ln.Addr().String(), nil
}

// Shutdown drains the server gracefully: it stops admitting (readiness goes
// 503, new queries are shed), waits for in-flight queries up to the drain
// deadline, then cancels any stragglers via context and closes the listener.
// It returns the first error observed (a drain-deadline overrun surfaces as
// context.DeadlineExceeded). Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		<-s.done
		return nil
	}
	start := time.Now()
	obs.Logger().Info("drain started", "inflight", s.adm.inFlight())
	// Stop the retraining controller first: it cancels any in-flight
	// fine-tune, and no new swap can land mid-drain. A candidate already
	// published stays published; Close never un-publishes. The telemetry
	// sampler goes with it — no SLO evaluation races the drain.
	s.ret.Close()
	s.ts.Close()
	if !s.started.Load() {
		s.baseCancel()
		s.aud.Close()
		close(s.done)
		return nil
	}
	drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	s.httpSrv.SetKeepAlivesEnabled(false)
	err := s.httpSrv.Shutdown(drainCtx)
	if err != nil {
		// Drain deadline hit: cancel in-flight queries and close hard. Each
		// canceled query still writes a well-formed JSON error response.
		s.baseCancel()
		grace, cancel2 := context.WithTimeout(context.Background(), time.Second)
		defer cancel2()
		if err2 := s.httpSrv.Shutdown(grace); err2 != nil {
			_ = s.httpSrv.Close()
		}
	}
	s.baseCancel()
	<-s.done
	// User traffic is drained; stop the audit workers too. Close rejects new
	// audits, aborts any in-flight ground-truth execution, and waits for the
	// pool to exit — SIGTERM leaves no audit goroutines behind.
	s.aud.Close()
	obs.Logger().Info("drain finished", "took", time.Since(start), "err", err)
	if err == nil {
		err = s.serveErr
	}
	return err
}

// QueryRequest is the JSON body of POST /query (GET uses ?q=<sql>).
type QueryRequest struct {
	SQL string `json:"sql"`
	// TimeoutMs overrides the server's default per-query deadline, capped at
	// the server's maximum (0 = server default).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// MaxRows lowers the server's per-query row cap (0 = server default).
	MaxRows int `json:"max_rows,omitempty"`
}

// QueryResponse is the JSON answer for /query. Exactly one of Rows/Error is
// populated; Degraded results are explicitly tagged, never passed off as
// exact. Clients decode into it; the server encodes errors from it with
// encoding/json and answers with appendAnswer, which writes Columns, Rows and
// RowCount from the engine's frame instead of from these fields.
type QueryResponse struct {
	Columns        []string `json:"columns,omitempty"`
	Rows           [][]any  `json:"rows,omitempty"`
	RowCount       int      `json:"row_count"`
	Source         string   `json:"source,omitempty"` // "approximation" | "full"
	Degraded       bool     `json:"degraded,omitempty"`
	DegradedReason string   `json:"degraded_reason,omitempty"`
	PredictedScore float64  `json:"predicted_score,omitempty"`
	Confidence     float64  `json:"confidence,omitempty"`
	ElapsedMs      float64  `json:"elapsed_ms"`
	Error          string   `json:"error,omitempty"`
	// TraceID links the response to its distributed trace (also echoed in
	// the traceparent response header). Present whenever tracing is enabled.
	TraceID string `json:"trace_id,omitempty"`
	// ObservedError, when shadow auditing is enabled and the answering
	// generation's audits have evidence for this query's shape, is the p95
	// relative error measured for answers shaped like this one — honest
	// uncertainty from ground truth, not a model prediction. It restarts at
	// every publish. A pointer so a measured 0.0 still serializes.
	ObservedError *float64 `json:"observed_error,omitempty"`
	// Generation is the publish generation of the system that answered (1 for
	// the system the server started with, bumped by every hot swap or
	// rollback). An answer is produced by exactly one generation.
	Generation int64 `json:"generation,omitempty"`
}

// The request path's registry names. handleQuery and writeErr keep them; the
// availability and latency SLOs and /sloz's rung_latency read them by name
// (slo.go). Whatever else the front door knows — in flight, queued, breaker
// state, generation — it serves itself, on /stats.
const (
	metricRequests       = "server/requests"
	metricDegraded       = "server/degraded"
	metricErrors         = "server/errors"
	metricUnavailable    = "server/unavailable"
	metricRequestSeconds = "server/request_seconds"
	metricRungApprox     = "server/rung_seconds/approximation"
	metricRungFull       = "server/rung_seconds/full"
)

var (
	requests          = obs.Default().Counter(metricRequests)
	degraded          = obs.Default().Counter(metricDegraded)
	errorsTotal       = obs.Default().Counter(metricErrors)
	unavailable       = obs.Default().Counter(metricUnavailable)
	requestSeconds    = obs.Default().Histogram(metricRequestSeconds)
	rungApproxSeconds = obs.Default().Histogram(metricRungApprox)
	rungFullSeconds   = obs.Default().Histogram(metricRungFull)
	// walAppendErrors counts journal appends the server gave up on: the WAL
	// is best-effort beside an answer already computed.
	walAppendErrors = obs.Default().Counter("server/wal_append_errors")
)

// handleQuery runs one query through admission control, the generation's
// answer cache, breaker routing, and the core degradation ladder. Every exit
// path writes well-formed JSON.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	requests.Inc()
	// Join the caller's trace (W3C traceparent) or start a fresh one. The
	// root span opens before the drain/readiness checks so shed requests
	// leave a trace naming the cause, and the response always carries the
	// trace ID (header + JSON) for correlation.
	ctx := r.Context()
	if h := r.Header[traceparentKey]; len(h) > 0 && h[0] != "" {
		if tid, parent, sampled, perr := obs.ParseTraceparent(h[0]); perr == nil {
			ctx = obs.ContextWithRemoteTrace(ctx, tid, parent, sampled)
		}
	}
	ctx, span := obs.StartSpan(ctx, "server/query")
	defer span.End()
	if span != nil {
		span.AnnotateString("method", r.Method)
		w.Header()[traceparentKey] = []string{obs.FormatTraceparent(span.TraceID(), span.SpanID(), true)}
	}
	if s.draining.Load() {
		span.Event("shed", "cause", "draining")
		s.writeErr(w, span, http.StatusServiceUnavailable, start, "draining", true)
		return
	}
	ls := s.live.Load()
	if ls == nil || ls.sys == nil {
		span.Event("shed", "cause", "not_ready")
		s.writeErr(w, span, http.StatusServiceUnavailable, start, "not ready: no system loaded", true)
		return
	}
	span.AnnotateInt("generation", ls.gen)
	req, err := parseQueryRequest(r)
	if err != nil {
		s.writeErr(w, span, http.StatusBadRequest, start, err.Error(), false)
		return
	}
	span.AnnotateString("sql", req.SQL)

	// Per-request deadline: client wish, clamped into (0, maxTimeout], or the
	// server default. The admission wait runs under the same deadline so a
	// queued request cannot outlive its client's patience.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		timeout = min(timeout, maxTimeout)
	}
	maxRows := s.cfg.MaxRows
	if req.MaxRows > 0 && req.MaxRows < maxRows {
		maxRows = req.MaxRows
	}

	// The request context descends from the server's base context (drain
	// deadline = cancel) through its connection (client gone = cancel).
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	if err := s.adm.acquire(ctx); err != nil {
		if errors.Is(err, ErrShed) {
			span.Event("shed", "cause", "admission", "in_flight", s.adm.inFlight())
			s.writeErr(w, span, http.StatusServiceUnavailable, start, "overloaded: in-flight and queue limits reached", true)
			return
		}
		s.writeErr(w, span, statusForError(err), start, "canceled while queued: "+err.Error(), false)
		return
	}
	defer s.adm.release()

	// A hit answers what this generation's ladder answered before, without
	// parsing, estimating or executing: only drift, the WAL and the audit,
	// which every request feeds, run again.
	fp := fingerprint(req.SQL, maxRows)
	if !s.cfg.noAnswerCache {
		if e := ls.cache.get(fp, req.SQL, maxRows); e != nil {
			s.cacheHits.Add(1)
			span.Event("answer_cache_hit")
			a := answered{
				Served: audit.Served{SQL: e.canonical, Source: "approximation"},
				stmt:   e.stmt, conf: e.conf, rows: e.rows, agg: e.agg,
			}
			if s.cfg.DriftObserve {
				a.drifted, a.triggered = ls.sys.Drift().ObserveDetail(e.est, e.conf)
			}
			buf := answerBufs.Get().(*[]byte)
			s.answer(w, span, start, ls.gen, &a, buf, append((*buf)[:0], e.head...), nil)
			return
		}
		s.cacheMisses.Add(1)
	}

	stmt, perr := sqlparse.Parse(req.SQL)
	if perr != nil {
		s.writeErr(w, span, http.StatusBadRequest, start, "parse error: "+perr.Error(), false)
		return
	}

	skipFull, probe := s.brk.acquire()
	if skipFull {
		span.Event("breaker_open", "state", s.brk.currentState().String())
	} else if probe {
		span.Event("breaker_probe")
	}
	opts := core.QueryOptions{
		Timeout:   0, // ctx already carries the deadline
		MaxRows:   maxRows,
		SkipFull:  skipFull,
		SkipDrift: !s.cfg.DriftObserve,
	}
	res, qerr := ls.sys.QueryFrameContext(ctx, stmt, opts)
	s.brk.record(probe, res != nil && res.FullAttempted, fullRungFailed(res))

	if qerr != nil {
		s.writeErr(w, span, statusForError(qerr), start, qerr.Error(), false)
		return
	}
	a := answered{
		Served: audit.Served{Source: "full", Degraded: res.Degraded, Reason: res.DegradedReason},
		stmt:   stmt, conf: res.Confidence, rows: res.Frame.N,
		drifted: res.Drifted, triggered: res.DriftTriggered,
	}
	if res.FromApproximation {
		a.Source = "approximation"
	}
	// One canonicalization serves the quality features (historical-error
	// lookup, audit-sampling offer) and the WAL record.
	if s.aud != nil || s.wal != nil {
		a.SQL = stmt.String()
	}
	if s.aud != nil && stmt.HasAggregates() {
		a.agg = res.Frame.Table() // an aggregate's frame is over its own rows: no copy
	}
	// The head is encoded while the frame, which borrows the answering
	// generation's rows, is in hand; nothing uses the frame after it.
	buf := answerBufs.Get().(*[]byte)
	body, encErr := appendAnswerHead((*buf)[:0], &QueryResponse{
		Source:         a.Source,
		Degraded:       a.Degraded,
		DegradedReason: a.Reason,
		PredictedScore: res.PredictedScore,
		Confidence:     res.Confidence,
	}, res.Frame)
	// Only a clean rung-1 answer is kept, and only once its statement repeats.
	if !s.cfg.noAnswerCache && encErr == nil && res.FromApproximation && !res.Degraded && ls.cache.sighted(fp) {
		ls.cache.put(&cachedAnswer{
			fp: fp, sql: req.SQL, maxRows: maxRows, head: bytes.Clone(body),
			stmt: stmt, est: res.Estimated, conf: res.Confidence,
			canonical: a.SQL, rows: a.rows, agg: a.agg,
		})
	}
	s.answer(w, span, start, ls.gen, &a, buf, body, encErr)
}

// traceparentKey is the traceparent header's canonical key, so reading and
// writing it never canonicalizes.
const traceparentKey = "Traceparent"

// answered is what a request's tail needs of its answer, whether the ladder
// computed it or the answer cache kept it. Served.SQL is the canonical
// statement, empty when neither the WAL nor the auditor reads it.
type answered struct {
	audit.Served
	stmt               *sqlparse.Select
	conf               float64
	rows               int
	agg                *table.RowSet // an aggregate's own rows, for the auditor
	drifted, triggered bool
}

// answer finishes a successful request, hit or miss: it wakes retraining,
// journals, offers the answer to the auditor, observes the request, and
// writes body (the answer's head, in the pooled buffer buf) with its tail.
func (s *Server) answer(w http.ResponseWriter, span *obs.Span, start time.Time, gen int64, a *answered, buf *[]byte, body []byte, encErr error) {
	// triggered stays set on every query while a batch waits (out a backoff,
	// say): Wake is a coalesced, non-blocking send, so this costs a failed
	// channel send per request, never a wait or a second attempt.
	if a.triggered {
		s.ret.Wake()
	}
	if a.Degraded {
		span.MarkDegraded(a.Reason)
	}
	if s.wal != nil {
		// Async appends: the frames are buffered now and fsynced by the next
		// group commit, so the request path never waits on the disk. A crash
		// can lose at most the frames of one un-synced batch — none of which
		// were promised durable to anyone.
		now := time.Now().UnixNano()
		aerr := s.wal.AppendAsync(wal.Record{
			Type: wal.TypeServed, UnixNs: now, SQL: a.SQL,
			Source: a.Source, Degraded: a.Degraded,
		})
		if aerr == nil && a.drifted {
			aerr = s.wal.AppendAsync(wal.Record{
				Type: wal.TypeDrift, UnixNs: now, SQL: a.SQL,
				Confidence: a.conf,
			})
		}
		if aerr != nil {
			walAppendErrors.Inc()
		}
	}
	tail := QueryResponse{Generation: gen}
	if span != nil {
		tail.TraceID = span.TraceID().String()
	}
	if s.aud != nil {
		if oe, ok := s.aud.ObservedError(a.SQL); ok {
			tail.ObservedError = &oe
			span.AnnotateFloat("observed_error_p95", oe)
		}
		a.TraceID, a.Generation = span.TraceID(), gen
		if s.aud.Consider(a.stmt, a.Served, a.rows, a.agg) {
			span.Event("audit_sampled")
		}
	}
	if a.Degraded {
		degraded.Inc()
	}
	elapsed := time.Since(start)
	requestSeconds.ObserveDurationExemplar(elapsed, span.TraceID())
	if a.Source == "approximation" {
		rungApproxSeconds.ObserveDuration(elapsed)
	} else {
		rungFullSeconds.ObserveDuration(elapsed)
	}
	tail.ElapsedMs = elapsedMs(start)
	body, tailErr := appendAnswerTail(body, &tail)
	writeBody(w, http.StatusOK, body, cmp.Or(encErr, tailErr))
	if cap(body) <= maxPooledAnswer {
		*buf = body
		answerBufs.Put(buf)
	}
}

// fullRungFailed reports whether the query's full-database rung failed in a
// way that counts against the circuit breaker: a deadline or a fault. Client
// cancellation, an error of the statement and a row-budget trip do not count:
// the database is immutable, so the statement and the request alone decide
// them, and they say nothing about backend health.
func fullRungFailed(res *core.QueryResult) bool {
	if res == nil || !res.FullAttempted {
		return false
	}
	return res.FullFailure == "deadline" || res.FullFailure == "fault"
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, time.Now(), map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		s.writeJSON(w, http.StatusServiceUnavailable, time.Now(), map[string]string{"status": "draining"})
	case s.recovering.Load():
		s.writeJSON(w, http.StatusServiceUnavailable, time.Now(), map[string]string{"status": "recovering"})
	case s.live.Load() == nil:
		s.writeJSON(w, http.StatusServiceUnavailable, time.Now(), map[string]string{"status": "loading"})
	default:
		s.writeJSON(w, http.StatusOK, time.Now(), map[string]string{"status": "ready"})
	}
}

// Stats is the JSON body of GET /stats: a point-in-time view of the
// admission controller, breaker, and lifecycle.
type Stats struct {
	Ready        bool   `json:"ready"`
	Draining     bool   `json:"draining"`
	InFlight     int    `json:"in_flight"`
	Queued       int64  `json:"queued"`
	MaxInFlight  int    `json:"max_in_flight"`
	QueueDepth   int    `json:"queue_depth"`
	BreakerState string `json:"breaker_state"`
	SetSize      int    `json:"set_size,omitempty"`
	// Quality is the shadow-audit rollup (Enabled false when auditing is
	// off); DriftedQueries counts deviating queries accumulated by the
	// drift detector since the last fine-tune.
	Quality        audit.Summary `json:"quality"`
	DriftedQueries int           `json:"drifted_queries"`
	// Generation is the publish generation of the live system; Retrain is
	// the background retraining controller's status (State "disabled" when
	// the controller is off).
	Generation int64          `json:"generation"`
	Retrain    retrain.Status `json:"retrain"`
	// WAL is the write-ahead log's point-in-time view (absent when
	// durability is off); Recovery is the startup replay report (absent
	// until a WAL-enabled server finishes recovering).
	WAL      *wal.Stats    `json:"wal,omitempty"`
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
	// SLO is the burn-rate engine's page (absent when no objectives are
	// configured); Diag is the flight recorder's status (absent when
	// DiagDir is unset).
	SLO  *slo.Page    `json:"slo,omitempty"`
	Diag *diag.Status `json:"diag,omitempty"`
	// AnswerCache is the answer cache: the live generation's entries and
	// bytes, and the hits and misses since the server started.
	AnswerCache AnswerCacheStats `json:"answer_cache"`
}

// statsNow assembles the /stats view. Shared by the HTTP handler and the
// flight recorder (a bundle's stats.json is exactly what /stats would have
// returned at capture time).
func (s *Server) statsNow() Stats {
	st := Stats{
		Ready:        s.Ready(),
		Draining:     s.draining.Load(),
		InFlight:     s.adm.inFlight(),
		Queued:       s.adm.queued.Load(),
		MaxInFlight:  s.cfg.MaxInFlight,
		QueueDepth:   s.cfg.QueueDepth,
		BreakerState: s.brk.currentState().String(),
		Quality:      s.aud.Stats(),
		Retrain:      s.ret.Status(),
	}
	st.AnswerCache.Hits, st.AnswerCache.Misses = s.cacheHits.Load(), s.cacheMisses.Load()
	if ls := s.live.Load(); ls != nil {
		st.AnswerCache.Entries, st.AnswerCache.Bytes = ls.cache.stats()
	}
	if sys, gen := s.System(); sys != nil {
		st.Generation = gen
		if sys.Set() != nil {
			st.SetSize = sys.Set().Size()
		}
		if d := sys.Drift(); d != nil {
			st.DriftedQueries = d.DriftedCount()
		}
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		st.WAL = &ws
	}
	st.Recovery = s.RecoveryInfo()
	if s.sloEng != nil {
		p := s.sloEng.Page()
		st.SLO = &p
	}
	if s.rec != nil {
		d := s.rec.Status()
		st.Diag = &d
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, time.Now(), s.statsNow())
}

// RetrainzPage is the /retrainz payload: the controller status plus the live
// generation, so one poll answers both "did a swap happen" and "which
// generation is serving".
type RetrainzPage struct {
	Generation int64          `json:"generation"`
	Status     retrain.Status `json:"status"`
}

// handleRetrainz serves the retraining controller status; ?force=1 requests
// an immediate retrain attempt, bypassing the drift-count threshold and any
// backoff (409 when the controller is disabled or closed). The endpoint is
// always mounted so dashboards can probe capability.
func (s *Server) handleRetrainz(w http.ResponseWriter, r *http.Request) {
	if v := r.URL.Query().Get("force"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, time.Now(),
				map[string]string{"error": fmt.Sprintf("bad force %q", v)})
			return
		}
		if on {
			if err := s.ret.Force(); err != nil {
				s.writeJSON(w, http.StatusConflict, time.Now(),
					map[string]string{"error": err.Error()})
				return
			}
		}
	}
	_, gen := s.System()
	s.writeJSON(w, http.StatusOK, time.Now(), RetrainzPage{Generation: gen, Status: s.ret.Status()})
}

// handleQualityz serves the /qualityz debug page: the audit rollup, every
// audited query shape sorted worst-p95 first, and the drift-detector status.
// The endpoint is always mounted; with auditing disabled it reports
// audit.enabled false so dashboards can probe capability.
func (s *Server) handleQualityz(w http.ResponseWriter, r *http.Request) {
	var drift *audit.DriftStatus
	if sys, _ := s.System(); sys != nil {
		if d := sys.Drift(); d != nil {
			drift = &audit.DriftStatus{
				Enabled:   s.cfg.DriftObserve,
				Drifted:   d.DriftedCount(),
				Threshold: d.Count,
				Triggered: d.Triggered(),
			}
		}
	}
	s.writeJSON(w, http.StatusOK, time.Now(), s.aud.Page(drift))
}

// parseQueryRequest accepts POST {json} or GET ?q=<sql>&timeout_ms=&max_rows=.
func parseQueryRequest(r *http.Request) (QueryRequest, error) {
	var req QueryRequest
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		if err := dec.Decode(&req); err != nil {
			return req, fmt.Errorf("bad request body: %v", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.SQL = q.Get("q")
		if v := q.Get("timeout_ms"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad timeout_ms %q", v)
			}
			req.TimeoutMs = n
		}
		if v := q.Get("max_rows"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad max_rows %q", v)
			}
			req.MaxRows = n
		}
	default:
		return req, fmt.Errorf("method %s not allowed; use GET or POST", r.Method)
	}
	if req.SQL == "" {
		return req, errors.New("missing query: POST {\"sql\": ...} or GET ?q=...")
	}
	return req, nil
}

// statusForError maps query errors to HTTP statuses: a statement that cannot
// run, or a row budget it trips with no rows to serve → 400, deadline → 504,
// client cancellation → 499 (nginx convention), anything else → 500.
func statusForError(err error) int {
	switch {
	case errors.Is(err, engine.ErrStatement), errors.Is(err, engine.ErrRowBudget):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, engine.ErrCanceled), errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeErr(w http.ResponseWriter, span *obs.Span, status int, start time.Time, msg string, shed bool) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	span.MarkError(msg)
	span.Annotate("http_status", status)
	if shed {
		unavailable.Inc()
	} else {
		errorsTotal.Inc()
	}
	requestSeconds.ObserveDurationExemplar(time.Since(start), span.TraceID())
	resp := &QueryResponse{Error: msg}
	if span != nil {
		resp.TraceID = span.TraceID().String()
	}
	s.writeJSON(w, status, start, resp)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, start time.Time, v any) {
	if resp, ok := v.(*QueryResponse); ok {
		resp.ElapsedMs = elapsedMs(start)
	}
	body, err := json.Marshal(v)
	writeBody(w, status, body, err)
}

func elapsedMs(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// writeBody commits status and an encoded body, newline-terminated. The body
// is encoded before the status is committed: a value JSON cannot carry
// (encErr) must become a 500, not the intended status over an empty body. Its
// length is declared and it goes out in one Write, so net/http sends it whole
// rather than in chunks.
func writeBody(w http.ResponseWriter, status int, body []byte, encErr error) {
	if encErr != nil {
		obs.Logger().Error("response encode failed", "err", encErr)
		status = http.StatusInternalServerError
		body, _ = json.Marshal(&QueryResponse{Error: "response encode failed: " + encErr.Error()}) // strings only: cannot fail
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	// A failed write means the client is gone; nobody is left to tell.
	_, _ = w.Write(body)
}
