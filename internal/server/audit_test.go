package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"asqprl/internal/audit"
	"asqprl/internal/obs"
)

// TestAuditEndToEnd is the PR's acceptance test: an approximation-served
// query is sampled for shadow auditing, re-executed against the full
// database in the background, and its relative error must surface on every
// spine the quality layer claims — (a) an `audit` span event amended onto
// the original request's kept trace, (b) the /qualityz shape report, (c) the
// audit/relative_error histogram on /metrics carrying the same trace ID
// as an exemplar, (d) the quality block of /stats, and (e) an observed_error
// field on the next same-shape /query response.
func TestAuditEndToEnd(t *testing.T) {
	// Healthy traces must be tail-kept for the audit verdict to have a trace
	// to amend, so sample at 1.
	withServerTracing(t, obs.TracingConfig{SampleRate: 1})
	sys := trainedSystem(t)
	srv, base := startServer(t, sys, Config{
		AuditSample:  1,
		DriftObserve: true,
	})

	tid, httpResp, resp := postTraced(t, base, approxRouteSQL, 0)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %+v", httpResp.StatusCode, resp)
	}
	if resp.Source != "approximation" {
		t.Fatalf("source %q, want approximation (fixture routed unexpectedly)", resp.Source)
	}
	// The very first answer for this shape has no audit evidence yet.
	if resp.ObservedError != nil {
		t.Errorf("first response already carries observed_error %v", *resp.ObservedError)
	}

	// The audit runs asynchronously; its last visible side effect is the
	// amendment of the original trace, so poll for that.
	var rec obs.TraceRecord
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ok bool
		rec, ok = obs.KeptTrace(tid.String())
		if ok && hasEvent(rec.Root, "audit", "", nil) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("audit verdict never landed on trace %s (kept=%v, stats=%+v)",
				tid, ok, srv.aud.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// (a) the original trace carries both the sampling decision and the
	// late verdict with a well-formed error and shape.
	if !hasEvent(rec.Root, "audit_sampled", "", nil) {
		t.Error("request trace missing the audit_sampled event")
	}
	var verdict *obs.SpanEvent
	for i, ev := range rec.Root.Events {
		if ev.Name == "audit" {
			verdict = &rec.Root.Events[i]
		}
	}
	if verdict == nil {
		t.Fatal("audit event vanished from the kept trace")
	}
	relErr, ok := verdict.Attrs["relative_error"].(float64)
	if !ok || relErr < 0 || relErr > 1 {
		t.Errorf("audit event relative_error = %v, want a float in [0,1]", verdict.Attrs["relative_error"])
	}
	if shape, _ := verdict.Attrs["shape"].(string); shape == "" {
		t.Error("audit event has no shape attribute")
	}

	// (b) /qualityz reports the rollup, the shape, and the drift status.
	var page audit.QualityPage
	getJSON(t, base+"/qualityz", &page)
	if !page.Audit.Enabled || page.Audit.Sampled < 1 || page.Audit.Completed < 1 {
		t.Errorf("qualityz audit rollup = %+v, want enabled with ≥1 sampled and completed", page.Audit)
	}
	if page.Audit.Coverage <= 0 || page.Audit.Coverage > 1 {
		t.Errorf("qualityz coverage = %v, want in (0,1]", page.Audit.Coverage)
	}
	if len(page.Shapes) == 0 {
		t.Fatal("qualityz reports no shapes after a completed audit")
	}
	sr := page.Shapes[0]
	if sr.Shape == "" || sr.Count < 1 {
		t.Errorf("qualityz shape report = %+v, want named shape with count ≥ 1", sr)
	}
	if sr.P50 < 0 || sr.P95 > 1 || sr.Max > 1 {
		t.Errorf("qualityz shape quantiles out of range: %+v", sr)
	}
	if page.Drift == nil || !page.Drift.Enabled {
		t.Errorf("qualityz drift block = %+v, want enabled (DriftObserve on)", page.Drift)
	}

	// (c) /metrics serves the pooled relative-error histogram with an
	// exemplar carrying the request's trace ID.
	debug := httptest.NewServer(obs.Handler())
	defer debug.Close()
	if !hasExemplar(t, debug.URL, audit.MetricRelativeError, tid) {
		t.Error("/metrics: no exemplar with the audited request's trace ID on the pooled relative-error histogram")
	}

	// (d) /stats embeds the same rollup plus the drift counter.
	var st Stats
	getJSON(t, base+"/stats", &st)
	if !st.Quality.Enabled || st.Quality.Completed < 1 {
		t.Errorf("/stats quality block = %+v, want enabled with ≥1 completed", st.Quality)
	}
	if st.DriftedQueries < 0 {
		t.Errorf("/stats drifted_queries = %d", st.DriftedQueries)
	}

	// (e) the next same-shape answer advertises the historical p95.
	_, _, resp2 := postTraced(t, base, approxRouteSQL, 0)
	if resp2.ObservedError == nil {
		t.Fatal("second same-shape response has no observed_error despite audit evidence")
	}
	if oe := *resp2.ObservedError; oe < 0 || oe > 1 {
		t.Errorf("observed_error = %v, want in [0,1]", oe)
	}
}

// TestDriftFeedFromServing covers the -drift-observe wiring: with
// observation off (the default, so synthetic and test traffic cannot poison
// fine-tuning decisions) served queries leave the detector untouched; with
// it on, out-of-distribution queries accumulate and surface in /stats and
// /qualityz.
func TestDriftFeedFromServing(t *testing.T) {
	sys := trainedSystem(t)
	d := sys.Drift()
	d.ResetDrift()
	t.Cleanup(d.ResetDrift) // shared system: leave no drift state behind

	// The fixture must actually be out-of-distribution for the detector.
	if _, conf := sys.Estimator().Estimate(mustParse(t, fullRouteSQL)); 1-conf < d.Confidence {
		t.Skipf("fixture query deviation %.2f below drift confidence %.2f", 1-conf, d.Confidence)
	}

	// Observation off (default Config): no accumulation.
	_, base := startServer(t, sys, Config{})
	postQuery(t, base, fullRouteSQL, 0, 0)
	if got := d.DriftedCount(); got != 0 {
		t.Fatalf("drift observed %d queries with -drift-observe off, want 0", got)
	}

	// Observation on: each OOD query lands in the detector, and crossing the
	// threshold flips Triggered.
	_, base2 := startServer(t, sys, Config{DriftObserve: true})
	for i := 0; i < d.Count; i++ {
		postQuery(t, base2, fullRouteSQL, 0, 0)
	}
	if got := d.DriftedCount(); got < d.Count {
		t.Fatalf("drifted count = %d after %d OOD queries, want ≥ %d", got, d.Count, d.Count)
	}

	var st Stats
	getJSON(t, base2+"/stats", &st)
	if st.DriftedQueries < d.Count {
		t.Errorf("/stats drifted_queries = %d, want ≥ %d", st.DriftedQueries, d.Count)
	}
	var page audit.QualityPage
	getJSON(t, base2+"/qualityz", &page)
	if page.Audit.Enabled {
		t.Error("audit reports enabled on a server with AuditSample 0")
	}
	if page.Drift == nil {
		t.Fatal("/qualityz has no drift block despite a loaded system")
	}
	if !page.Drift.Enabled || page.Drift.Drifted < d.Count || !page.Drift.Triggered {
		t.Errorf("/qualityz drift = %+v, want enabled, drifted ≥ %d, triggered", page.Drift, d.Count)
	}
	if page.Drift.Threshold != d.Count {
		t.Errorf("/qualityz drift threshold = %d, want %d", page.Drift.Threshold, d.Count)
	}
}

// TestChaosAuditOverloadAndDrain is the audit safety test: 4x offered load
// with auditing at full sampling must behave exactly like the same overload
// without auditing — audits hold no admission slots, so user queries are
// shed only by admission control itself, a user query always beats a
// pending audit backlog, and SIGTERM-style shutdown drains the audit
// workers cleanly with no goroutines left behind.
func TestChaosAuditOverloadAndDrain(t *testing.T) {
	sys := trainedSystem(t) // train before sampling the goroutine baseline
	before := countGoroutines()

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.Default().Reset()

	srv, base := startServer(t, sys, Config{
		MaxInFlight:    4,
		QueueDepth:     4,
		DefaultTimeout: 2 * time.Second,
		DrainTimeout:   5 * time.Second,
		AuditSample:    1, // every eligible answer queues an audit
	})

	// 32 concurrent clients against capacity 8 = 4x offered load, in
	// synchronized bursts. Every query is approximation-routed, so every
	// 200 is audit-eligible and sampled.
	const clients = 32
	const rounds = 4
	type tally struct {
		ok, shed, other int
	}
	var (
		mu    sync.Mutex
		total tally
	)
	for r := 0; r < rounds; r++ {
		var done sync.WaitGroup
		for c := 0; c < clients; c++ {
			done.Add(1)
			go func(id, r int) {
				defer done.Done()
				status, resp, err := tryPostQuery(base, approxRouteSQL, 0, 0)
				if err != nil {
					t.Errorf("client %d round %d: transport/body error: %v", id, r, err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				switch {
				case status == http.StatusOK:
					total.ok++
				case status == http.StatusServiceUnavailable:
					total.shed++
				case resp.Error != "":
					total.other++
				default:
					t.Errorf("client %d round %d: status %d with empty error", id, r, status)
				}
			}(c, r)
		}
		done.Wait()
	}
	if got := total.ok + total.shed + total.other; got != clients*rounds {
		t.Errorf("accounted responses = %d, want %d", got, clients*rounds)
	}
	if total.ok == 0 {
		t.Fatal("no request succeeded under overload")
	}
	t.Logf("audit chaos tally: ok=%d shed=%d other=%d", total.ok, total.shed, total.other)

	// Structural no-shed guarantee: audit workers never touch admission, so
	// with all clients gone the admission controller must read completely
	// idle even while the audit backlog is still executing.
	if in, q := srv.adm.inFlight(), srv.adm.queued.Load(); in != 0 || q != 0 {
		t.Errorf("admission shows in_flight=%d queued=%d after clients left — audits are holding slots", in, q)
	}
	// And a user query arriving over a pending audit backlog is admitted
	// immediately, never shed by audit work.
	status, resp := postQuery(t, base, approxRouteSQL, 0, 0)
	if status != http.StatusOK {
		t.Errorf("user query over audit backlog: status %d (%s), want 200", status, resp.Error)
	}

	// The audit pipeline's books must balance: everything sampled is
	// completed, failed, dropped, or still pending — never lost.
	as := srv.aud.Stats()
	if as.Sampled < int64(total.ok) {
		t.Errorf("sampled %d audits for %d eligible answers at rate 1", as.Sampled, total.ok+1)
	}
	if done := as.Completed + as.Failed + as.Dropped; done > as.Sampled {
		t.Errorf("audit accounting: completed+failed+dropped = %d > sampled %d", done, as.Sampled)
	}

	// SIGTERM path: graceful drain must stop the audit pool (pending audits
	// discarded, in-flight ones aborted) and leave no goroutines.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain with audit backlog: %v", err)
	}
	if srv.aud.Consider(mustParse(t, approxRouteSQL), audit.Served{Source: "approximation"}, 0, nil) {
		t.Error("closed auditor accepted new work")
	}
	as = srv.aud.Stats()
	if done := as.Completed + as.Failed + as.Dropped; done != as.Sampled {
		t.Errorf("after drain every sampled audit must be accounted: completed+failed+dropped = %d, sampled = %d", done, as.Sampled)
	}
	after := waitGoroutinesBelow(before+2, 5*time.Second)
	if after > before+2 {
		t.Errorf("goroutines after drain = %d, baseline %d — audit workers leaked", after, before)
	}
}
