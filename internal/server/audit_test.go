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
// same trace, verdict included, served by /tracez, (d) the quality block of
// /stats, and (e) an observed_error field on the next same-shape /query
// response.
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

	// (c) /tracez serves the request's trace with the verdict on it.
	debug := httptest.NewServer(obs.Handler())
	defer debug.Close()
	var served obs.TraceRecord
	if code := getJSON(t, debug.URL+"/tracez?trace="+tid.String(), &served); code != http.StatusOK {
		t.Errorf("/tracez?trace=%s = %d, want the audited request's trace", tid, code)
	} else if !hasEvent(served.Root, "audit", "", nil) {
		t.Errorf("/tracez trace %s carries no audit event: %+v", tid, served.Root.Events)
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

// TestObservedErrorFollowsShape: observed_error is the evidence of the
// answering plan's shape, not of a statement text. After one completed audit
// of approxRouteSQL, a statement of the same shape that was never sent before
// carries that shape's /qualityz p95 when the set answers it, and again when
// the answer cache does; its audits pool under that one shape. A statement
// of a shape without evidence carries none, and neither does an exact answer.
func TestObservedErrorFollowsShape(t *testing.T) {
	srv, base := startServer(t, trainedSystem(t), Config{AuditSample: 1})
	settled := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for st := srv.aud.Stats(); st.Completed+st.Failed < n; st = srv.aud.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("audits did not complete: %+v, want %d", st, n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if _, resp := postQuery(t, base, approxRouteSQL, 0, 0); resp.Source != "approximation" || resp.ObservedError != nil {
		t.Fatalf("first answer: source %q observed_error %v, want the set's answer with no evidence yet", resp.Source, resp.ObservedError)
	}
	settled(1)
	var page audit.QualityPage
	getJSON(t, base+"/qualityz", &page)
	if page.Audit.Completed != 1 || len(page.Shapes) != 1 {
		t.Fatalf("/qualityz after one audit: %+v, want one completed audit of one shape", page)
	}
	shape := page.Shapes[0]

	const sameShape = "SELECT * FROM title WHERE rating > 8"
	for send := int64(1); send <= 3; send++ {
		_, resp := postQuery(t, base, sameShape, 0, 0)
		if resp.Source != "approximation" || resp.Degraded {
			t.Fatalf("send %d: source %q degraded %v, want a clean set answer", send, resp.Source, resp.Degraded)
		}
		if resp.ObservedError == nil {
			t.Fatalf("send %d of %q carries no observed_error despite evidence for its shape %s", send, sameShape, shape.Shape)
		}
		if send == 1 && *resp.ObservedError != shape.P95 {
			t.Errorf("observed_error = %v, want the shape's /qualityz p95 %v", *resp.ObservedError, shape.P95)
		}
		settled(1 + send) // every set answer is audited at sample 1
	}
	if hits := srv.cacheHits.Load(); hits != 1 {
		t.Errorf("answer cache hits = %d, want the third send a hit", hits)
	}
	getJSON(t, base+"/qualityz", &page)
	if len(page.Shapes) != 1 || page.Shapes[0].Shape != shape.Shape || page.Shapes[0].Count != page.Audit.Completed {
		t.Errorf("/qualityz shapes %+v over %d audits, want all under %s", page.Shapes, page.Audit.Completed, shape.Shape)
	}

	const otherShape = "SELECT title FROM title WHERE rating > 7 ORDER BY title"
	if _, resp := postQuery(t, base, otherShape, 0, 0); resp.ObservedError != nil {
		t.Errorf("%q, a shape without evidence, carries observed_error %v", otherShape, *resp.ObservedError)
	}
	// The full database's clean answer is exact, whatever its shape's evidence.
	if _, resp := postQuery(t, base, fullRouteSQL, 0, 0); resp.Source != "full" || resp.Degraded || resp.ObservedError != nil {
		t.Errorf("%q: source %q degraded %v observed_error %v, want an exact full answer with none",
			fullRouteSQL, resp.Source, resp.Degraded, resp.ObservedError)
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
