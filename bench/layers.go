package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/embed"
	"asqprl/internal/engine"
	"asqprl/internal/obs"
	"asqprl/internal/server"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
	"asqprl/internal/wal"
)

// span is one timed call at a layer boundary, recorded by the bench around
// its own calls into the layer. Spans of one replayed request share a trace.
type span struct {
	Trace    int    `json:"trace"`
	Span     int    `json:"span"`
	Parent   int    `json:"parent"` // 0 for the root
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The containment tree of one replayed request. The root is a real HTTP
// round trip to the child; every other span is the same input run once,
// standalone, in the bench process against the system loaded from the child's
// snapshot. Children are separate executions (warm caches, no nesting), so the
// table made from them is a budget, not a profile.
//
// embed.query sits under core.estimate (Estimate embeds the statement itself),
// not beside it, so that self times do not subtract the embedding twice.
var spanParent = map[string]string{
	"http.roundtrip":   "",
	"server.handler":   "http.roundtrip",
	"sqlparse.parse":   "server.handler",
	"core.query":       "server.handler",
	"sqlparse.string":  "server.handler",
	"wal.append_async": "server.handler",
	"core.estimate":    "core.query",
	"engine.exec":      "core.query",
	"embed.query":      "core.estimate",
}

// tracer appends the spans of one trace. Span ids are handed out in call
// order; a span whose parent was not recorded in the trace (no HTTP above an
// in-process query, say) is a root.
type tracer struct {
	r       *run
	epoch   time.Time
	trace   int
	parents map[string]string
	ids     map[string]int
}

func (r *run) newTrace(epoch time.Time, parents map[string]string) *tracer {
	r.traces++
	return &tracer{r: r, epoch: epoch, trace: r.traces, parents: parents, ids: map[string]int{}}
}

// timed runs fn as the named span and returns its duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	t.ids[name] = len(t.ids) + 1
	start := time.Now()
	fn()
	end := time.Now()
	t.r.spans = append(t.r.spans, span{
		Trace: t.trace, Span: t.ids[name], Parent: t.ids[t.parents[name]], Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
		Workload: t.r.spec.Name,
	})
	return end.Sub(start)
}

// tableProbes are the table-layer timings the bench takes while reading a
// corpus into its own, still empty, process: the very files the child loads.
type tableProbes struct {
	csvRead      time.Duration
	columnsBuild time.Duration
	heapMB       float64 // heap in use once rows and columnar view are resident
}

func (p tableProbes) report(r *run) {
	r.set("table.csv.read_s", p.csvRead.Seconds())
	r.set("table.columns.build_s", p.columnsBuild.Seconds())
	r.set("table.heap_mb", p.heapMB)
}

// loadProbed reads the corpus CSVs and builds every table's columnar view,
// timing each. Called before anything else is resident, so the heap in use
// afterwards is the database's.
func loadProbed(c *corpus) (*table.Database, tableProbes, error) {
	var p tableProbes
	db, took, err := c.loadDB()
	if err != nil {
		return nil, p, err
	}
	p.csvRead = took
	start := time.Now()
	for _, t := range db.Tables() {
		t.Columns()
	}
	p.columnsBuild = time.Since(start)
	p.heapMB = heapInUseMB()
	return db, p, nil
}

// loadProbes adds the snapshot-side timings of a serving run's load.
type loadProbes struct {
	tableProbes
	snapLoad    time.Duration
	materialize time.Duration
	snapBytes   int64
}

func (p loadProbes) report(r *run) {
	p.tableProbes.report(r)
	r.set("table.materialize.busy_ms", float64(p.materialize)/float64(time.Millisecond))
	r.set("core.snapshot.load_s", p.snapLoad.Seconds())
	r.set("core.snapshot.bytes", float64(p.snapBytes))
}

// loadSystem reads the corpus CSVs and the trained snapshot into the bench
// process, timing each step.
func loadSystem(c *corpus, k int) (*table.Database, *core.System, loadProbes, error) {
	var p loadProbes
	db, tp, err := loadProbed(c)
	if err != nil {
		return nil, nil, p, err
	}
	p.tableProbes = tp
	start := time.Now()
	sys, err := core.LoadFile(db, c.snapshotPath(k))
	if err != nil {
		return nil, nil, p, fmt.Errorf("load the child's snapshot: %w", err)
	}
	p.snapLoad = time.Since(start)
	if fi, err := os.Stat(c.snapshotPath(k)); err == nil {
		p.snapBytes = fi.Size()
	}
	start = time.Now()
	sys.Set().Materialize(db)
	p.materialize = time.Since(start)
	return db, sys, p, nil
}

// heapInUseMB is the heap in use after a collection.
func heapInUseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// handlerProbe is an in-process server over the bench's copy of the system,
// configured as the child is, so the handler can be timed without the wire.
type handlerProbe struct {
	srv     *server.Server
	handler http.Handler
	wlog    *wal.Log
}

func (r *run) newHandlerProbe(sys *core.System) (*handlerProbe, error) {
	// asqp-serve always runs with obs on and the tail sampler configured.
	obs.ConfigureTracing(obs.TracingConfig{SampleRate: 0.01, SlowThreshold: 500 * time.Millisecond})
	cfg := server.Config{DriftObserve: true}
	hp := &handlerProbe{}
	if r.spec.Durable {
		var err error
		hp.wlog, _, err = wal.Open(filepath.Join(r.runDir, "wal-probe"), wal.Options{})
		if err != nil {
			return nil, err
		}
		cfg.WAL = hp.wlog
		cfg.AuditSample = 0.1
	}
	hp.srv = server.New(sys, cfg)
	hp.handler = hp.srv.Handler()
	return hp, nil
}

func (hp *handlerProbe) close() {
	_ = hp.srv.Shutdown(context.Background())
	_ = hp.wlog.Close()
	obs.DisableTracing()
	obs.SetEnabled(false)
}

// serve runs one request through the in-process handler.
func (hp *handlerProbe) serve(st *stmt) (int, error) {
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(st.body))
	rec := httptest.NewRecorder()
	hp.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("in-process handler: HTTP %d for %q: %s", rec.Code, st.sql, tailOf(rec.Body.Bytes(), 200))
	}
	return rec.Body.Len(), nil
}

// allocsOver reports mallocs and bytes allocated per call of fn over n
// single-threaded calls.
func allocsOver(n int, fn func(i int)) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations collects per-call timings of one span name.
type durations map[string][]float64

func (d durations) add(name string, took time.Duration) { d[name] = append(d[name], us(took)) }
func (d durations) p50(name string) float64             { return quantile(d[name], 0.5) }

// replayTarget is what a traced replay can reach: always the bench's own
// copy of the system; for serving workloads also the child (over conn) and an
// in-process handler.
type replayTarget struct {
	sys  *core.System
	conn *conn
	hp   *handlerProbe
}

// tracedReplay replays traceReplays requests from a connection's own stream
// one at a time, each as one trace, and derives the per-layer metrics.
func (r *run) tracedReplay(ctx context.Context, tg replayTarget, stream *connStream) error {
	cfg := tg.sys.Config()
	emb := embed.Embedder{Dim: cfg.EmbedDim}
	qopts := core.QueryOptions{MaxRows: 100000, SkipDrift: tg.conn == nil}
	eopts := engine.Options{MaxOutputRows: 100000, Parallelism: cfg.Parallelism}

	replay := make([]*stmt, traceReplays)
	for i := range replay {
		var err error
		if replay[i], err = stream.next(); err != nil {
			return err
		}
	}

	d := durations{}
	var (
		residual, handlerSelf, coreSelf []float64
		approxExec, fullExec            []float64
		rowsOut, rowsExamined           float64
		parsedAll                       = make([]*sqlparse.Select, len(replay))
	)
	epoch := time.Now()
	for i, st := range replay {
		t := r.newTrace(epoch, spanParent)
		var stepErr error
		var rt, h, str, app time.Duration
		if tg.conn != nil {
			var rep reply
			rt = t.timed("http.roundtrip", func() { rep, stepErr = tg.conn.do(st) })
			if stepErr == nil && (rep.status != http.StatusOK || rep.degraded) {
				stepErr = fmt.Errorf("HTTP %d degraded=%v %s", rep.status, rep.degraded, rep.detail)
			}
			if stepErr != nil {
				return fmt.Errorf("traced replay %q: %w", st.sql, stepErr)
			}
			h = t.timed("server.handler", func() { _, stepErr = tg.hp.serve(st) })
			if stepErr != nil {
				return stepErr
			}
		}
		var parsed *sqlparse.Select
		parse := t.timed("sqlparse.parse", func() { parsed, stepErr = sqlparse.Parse(st.sql) })
		if stepErr != nil {
			return stepErr
		}
		parsedAll[i] = parsed
		var res *core.QueryResult
		q := t.timed("core.query", func() { res, stepErr = tg.sys.QueryStmtContext(ctx, parsed, qopts) })
		if stepErr != nil {
			return fmt.Errorf("traced replay %q in process: %w", st.sql, stepErr)
		}
		estStmt := estimatorView(parsed)
		est := t.timed("core.estimate", func() { tg.sys.Estimator().Estimate(estStmt) })
		t.timed("embed.query", func() { emb.Query(estStmt) })
		rung := tg.sys.DB()
		if res.FromApproximation {
			rung = tg.sys.SetDB()
		}
		var eres *engine.Result
		exec := t.timed("engine.exec", func() { eres, stepErr = engine.ExecuteWithContext(ctx, rung, parsed, eopts) })
		if stepErr != nil {
			return fmt.Errorf("traced replay %q on the engine: %w", st.sql, stepErr)
		}
		if tg.hp != nil && tg.hp.wlog != nil {
			// Only a server with the WAL or the auditor on renders the
			// canonical SQL and appends.
			var canonical string
			str = t.timed("sqlparse.string", func() { canonical = parsed.String() })
			app = t.timed("wal.append_async", func() {
				stepErr = tg.hp.wlog.AppendAsync(wal.Record{Type: wal.TypeServed, UnixNs: time.Now().UnixNano(), SQL: canonical, Source: "full"})
			})
			if stepErr != nil {
				return stepErr
			}
		}

		d.add("sqlparse.parse", parse)
		d.add("core.query", q)
		d.add("core.estimate", est)
		d.add("engine.exec", exec)
		coreSelf = append(coreSelf, us(max(0, q-est-exec)))
		if tg.conn != nil {
			d.add("http.roundtrip", rt)
			d.add("server.handler", h)
			residual = append(residual, us(max(0, rt-h)))
			handlerSelf = append(handlerSelf, us(max(0, h-parse-q-str-app)))
		}
		if res.FromApproximation {
			approxExec = append(approxExec, us(exec))
		} else {
			fullExec = append(fullExec, us(exec))
		}
		rowsOut += float64(eres.Table.NumRows())
		for _, ref := range parsed.From {
			rowsExamined += float64(rung.Table(ref.Table).NumRows())
		}
		for _, j := range parsed.Joins {
			rowsExamined += float64(rung.Table(j.Ref.Table).NumRows())
		}
	}
	r.detail["trace_requests"] = len(replay)

	r.set("sqlparse.parse.busy_us_p50", d.p50("sqlparse.parse"))
	r.set("core.query.busy_us_p50", d.p50("core.query"))
	r.set("core.query.self_us_p50", quantile(coreSelf, 0.5))
	r.set("core.estimate.busy_us_p50", d.p50("core.estimate"))
	r.set("engine.exec.approx.busy_us_p50", quantile(approxExec, 0.5))
	r.set("engine.exec.full.busy_us_p50", quantile(fullExec, 0.5))
	r.set("engine.exec.full.busy_us_p99", quantile(fullExec, 0.99))
	if rowsOut > 0 {
		r.set("engine.rows_examined_per_row_out", rowsExamined/rowsOut)
	}

	// Calls too short to share a trace's clock readings with anything else:
	// time them back to back over the replayed statements.
	var strs, embeds, counts []float64
	for _, p := range parsedAll {
		est := estimatorView(p)
		t0 := time.Now()
		_ = p.String()
		t1 := time.Now()
		emb.Query(est)
		t2 := time.Now()
		if _, err := engine.CountContext(ctx, tg.sys.DB(), p, engine.Options{}); err != nil {
			return err
		}
		t3 := time.Now()
		strs = append(strs, us(t1.Sub(t0)))
		embeds = append(embeds, us(t2.Sub(t1)))
		counts = append(counts, us(t3.Sub(t2)))
	}
	r.set("sqlparse.string.busy_us_p50", quantile(strs, 0.5))
	r.set("embed.query.busy_us_p50", quantile(embeds, 0.5))
	r.set("engine.count.busy_us_p50", quantile(counts, 0.5))

	// Allocation counts over single-threaded calls on the replayed inputs.
	n := min(200, len(replay))
	a, _ := allocsOver(n, func(i int) { _, _ = sqlparse.Parse(replay[i].sql) })
	r.set("sqlparse.parse.allocs_per_op", a)
	a, _ = allocsOver(n, func(i int) { tg.sys.Estimator().Estimate(parsedAll[i]) })
	r.set("core.estimate.allocs_per_op", a)
	var execRows float64
	a, b := allocsOver(n, func(i int) {
		if res, err := engine.ExecuteWithContext(ctx, tg.sys.DB(), parsedAll[i], eopts); err == nil {
			execRows += float64(res.Table.NumRows())
		}
	})
	r.set("engine.exec.allocs_per_op", a)
	if execRows > 0 {
		r.set("engine.exec.alloc_bytes_per_row_out", b*float64(n)/execRows)
	}
	if tg.conn == nil {
		return nil
	}

	r.set("http.roundtrip_us_p50", d.p50("http.roundtrip"))
	r.set("http.residual_us_p50", quantile(residual, 0.5))
	r.set("server.handler.busy_us_p50", d.p50("server.handler"))
	r.set("server.handler.busy_us_p99", quantile(d["server.handler"], 0.99))
	r.set("server.self_us_p50", quantile(handlerSelf, 0.5))
	r.detail["engine_share_of_roundtrip"] = d.p50("engine.exec") / d.p50("http.roundtrip")
	a, b = allocsOver(n, func(i int) { _, _ = tg.hp.serve(replay[i]) })
	r.set("server.handler.allocs_per_op", a)
	r.set("server.handler.alloc_bytes_per_op", b)

	// What obs costs the handler: the same requests with recording off.
	var on, off []float64
	for _, st := range replay[:n] {
		t0 := time.Now()
		_, _ = tg.hp.serve(st)
		on = append(on, us(time.Since(t0)))
	}
	obs.SetEnabled(false)
	for _, st := range replay[:n] {
		t0 := time.Now()
		_, _ = tg.hp.serve(st)
		off = append(off, us(time.Since(t0)))
	}
	obs.SetEnabled(true)
	r.set("obs.enabled.overhead_us_p50", quantile(on, 0.5)-quantile(off, 0.5))
	return nil
}

// estimatorView is the statement the estimator and embedder see: aggregates
// are estimated through their SPJ rewrite.
func estimatorView(p *sqlparse.Select) *sqlparse.Select {
	if p.HasAggregates() {
		return engine.RewriteAggregateToSPJ(p)
	}
	return p
}

// engineFamilies times each bench template family on the full database: the
// per-operator view of the engine, the same on every serving workload.
func (r *run) engineFamilies(ctx context.Context, sys *core.System) error {
	const perFamily = 40
	eopts := engine.Options{MaxOutputRows: 100000, Parallelism: sys.Config().Parallelism}
	miss := missPool(sys.DB(), r.seed)
	wide, err := wideSet(ctx, sys.DB(), r.seed)
	if err != nil {
		return err
	}
	byFam := map[family][]*stmt{famWide: wide[:min(perFamily, len(wide))]}
	for i := 0; ; i++ {
		st, err := miss.at(i)
		if err != nil {
			return err
		}
		f := st.fam
		if len(byFam[f]) < perFamily {
			byFam[f] = append(byFam[f], st)
		}
		if len(byFam[famScan]) == perFamily && len(byFam[famJoin2]) == perFamily &&
			len(byFam[famJoin3]) == perFamily && len(byFam[famAgg]) == perFamily {
			break
		}
	}
	for f, name := range map[family]string{famScan: "scan", famJoin2: "join2", famJoin3: "join3", famAgg: "agg", famWide: "wide"} {
		var took []float64
		for _, st := range byFam[f] {
			parsed, err := sqlparse.Parse(st.sql)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := engine.ExecuteWithContext(ctx, sys.DB(), parsed, eopts); err != nil {
				return fmt.Errorf("family %s: %q: %w", name, st.sql, err)
			}
			took = append(took, us(time.Since(t0)))
		}
		r.set("engine.exec."+name+".busy_us_p50", quantile(took, 0.5))
	}
	return nil
}

// walProbe times appends on the bench's own log in the run directory: the
// request path's fire-and-forget append, and the durable (fsynced) one.
func (r *run) walProbe(wlog *wal.Log) error {
	rec := wal.Record{Type: wal.TypeServed, SQL: "SELECT * FROM title WHERE rating > 7 AND votes > 100", Source: "approximation"}
	var async, durable []float64
	for i := 0; i < 200; i++ {
		rec.UnixNs = time.Now().UnixNano()
		t0 := time.Now()
		if err := wlog.AppendAsync(rec); err != nil {
			return err
		}
		async = append(async, us(time.Since(t0)))
	}
	for i := 0; i < 30; i++ {
		rec.UnixNs = time.Now().UnixNano()
		t0 := time.Now()
		if err := wlog.Append(rec); err != nil {
			return err
		}
		durable = append(durable, us(time.Since(t0)))
	}
	r.set("wal.append_async.busy_us_p50", quantile(async, 0.5))
	r.set("wal.append.busy_us_p50", quantile(durable, 0.5))
	if st := wlog.Stats(); st.Appended > 0 && st.Segments == 1 {
		r.set("wal.bytes_per_record", float64(st.ActiveBytes)/float64(st.Appended))
	}
	return nil
}
