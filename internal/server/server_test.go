package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/engine"
	"asqprl/internal/faults"
	"asqprl/internal/obs"
	"asqprl/internal/retrain"
)

func TestQueryEndpointBasic(t *testing.T) {
	sys := trainedSystem(t)
	_, base := startServer(t, sys, Config{})

	t.Run("post", func(t *testing.T) {
		status, resp := postQuery(t, base, approxRouteSQL, 0, 0)
		if status != http.StatusOK {
			t.Fatalf("status = %d (%s), want 200", status, resp.Error)
		}
		if resp.RowCount != len(resp.Rows) || len(resp.Columns) == 0 {
			t.Errorf("inconsistent result: row_count=%d rows=%d columns=%d",
				resp.RowCount, len(resp.Rows), len(resp.Columns))
		}
		if resp.Source != "approximation" && resp.Source != "full" {
			t.Errorf("source = %q", resp.Source)
		}
	})
	t.Run("get", func(t *testing.T) {
		var resp QueryResponse
		status := getJSON(t, base+"/query?q=SELECT+*+FROM+title+WHERE+rating+%3E+7", &resp)
		if status != http.StatusOK {
			t.Fatalf("status = %d (%s), want 200", status, resp.Error)
		}
	})
	t.Run("parse error is 400", func(t *testing.T) {
		status, resp := postQuery(t, base, "SELEKT broken", 0, 0)
		if status != http.StatusBadRequest || resp.Error == "" {
			t.Fatalf("status = %d error=%q, want 400 with error", status, resp.Error)
		}
	})
	t.Run("missing sql is 400", func(t *testing.T) {
		status, resp := postQuery(t, base, "", 0, 0)
		if status != http.StatusBadRequest || resp.Error == "" {
			t.Fatalf("status = %d error=%q, want 400 with error", status, resp.Error)
		}
	})
	t.Run("max_rows degrades explicitly", func(t *testing.T) {
		status, resp := postQuery(t, base, fullRouteSQL, 0, 3)
		if status != http.StatusOK {
			t.Fatalf("status = %d (%s), want 200", status, resp.Error)
		}
		if !resp.Degraded || resp.RowCount > 3 {
			t.Errorf("degraded=%v rows=%d, want degraded with <=3 rows", resp.Degraded, resp.RowCount)
		}
	})
	t.Run("health and stats", func(t *testing.T) {
		var h map[string]string
		if status := getJSON(t, base+"/healthz", &h); status != http.StatusOK {
			t.Errorf("/healthz = %d", status)
		}
		if status := getJSON(t, base+"/readyz", &h); status != http.StatusOK {
			t.Errorf("/readyz = %d, want 200 on a loaded system", status)
		}
		var st Stats
		if status := getJSON(t, base+"/stats", &st); status != http.StatusOK || !st.Ready {
			t.Errorf("/stats = %d ready=%v", status, st.Ready)
		}
		if st.BreakerState != "closed" {
			t.Errorf("breaker state = %q, want closed", st.BreakerState)
		}
	})
}

// TestReadinessGatedOnSystem: a server without a system answers health checks
// but refuses queries with 503 until SetSystem; draining flips it back.
func TestReadinessGatedOnSystem(t *testing.T) {
	srv, base := startServer(t, nil, Config{})

	var h map[string]string
	if status := getJSON(t, base+"/readyz", &h); status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before SetSystem = %d, want 503", status)
	}
	status, resp := postQuery(t, base, approxRouteSQL, 0, 0)
	if status != http.StatusServiceUnavailable || resp.Error == "" {
		t.Fatalf("query before SetSystem: status=%d error=%q, want 503 with error", status, resp.Error)
	}

	srv.SetSystem(trainedSystem(t))
	if status := getJSON(t, base+"/readyz", &h); status != http.StatusOK {
		t.Fatalf("/readyz after SetSystem = %d, want 200", status)
	}
	if status, resp := postQuery(t, base, approxRouteSQL, 0, 0); status != http.StatusOK {
		t.Fatalf("query after SetSystem: status=%d (%s), want 200", status, resp.Error)
	}
}

// TestAdmissionShedsAtQueueLimit floods a 1-slot, 1-queue server with slow
// queries: some must succeed, the overflow must be shed as 503 with a
// Retry-After header, and nothing may hang or return non-JSON.
func TestAdmissionShedsAtQueueLimit(t *testing.T) {
	sys := trainedSystem(t)
	_, base := startServer(t, sys, Config{
		MaxInFlight:    1,
		QueueDepth:     1,
		DefaultTimeout: 5 * time.Second,
	})

	// Slow every scan down so requests overlap deterministically.
	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point:   faults.PointEngineScan,
		Kind:    faults.KindLatency,
		Latency: 100 * time.Millisecond,
	}))
	defer faults.Disable()

	const n = 8
	type outcome struct {
		status int
		err    error
	}
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, err := tryPostQuery(base, approxRouteSQL, 0, 0)
			outcomes[i] = outcome{status, err}
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
		switch o.status {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Errorf("request %d: unexpected status %d", i, o.status)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under overload")
	}
	if shed == 0 {
		t.Errorf("no request shed with %d clients against capacity 2", n)
	}

	// Shed responses carry Retry-After so clients back off politely.
	resp, err := testClient.Get(base + "/query?q=" + strings.ReplaceAll(approxRouteSQL, " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestShedResponseHasRetryAfter drives the admission path directly.
func TestAdmissionUnit(t *testing.T) {
	a := newAdmission(1, 1)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Second caller queues; third is shed immediately.
	queued := make(chan error, 1)
	go func() {
		queued <- a.acquire(context.Background())
	}()
	time.Sleep(20 * time.Millisecond) // let the second caller enter the queue
	if err := a.acquire(context.Background()); err != ErrShed {
		t.Fatalf("third acquire = %v, want ErrShed", err)
	}
	a.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	a.release()

	// A queued caller whose context dies gets the context error, and its
	// ticket is returned (the queue does not leak).
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if err := a.acquire(ctx); err != context.Canceled {
		t.Fatalf("canceled queued acquire = %v, want context.Canceled", err)
	}
	a.release()
	if err := a.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after canceled waiter should succeed: %v", err)
	}
	a.release()
}

// TestBreakerStateMachine drives every transition with a fake clock:
// closed -> open after N consecutive failures, open sheds until the cooldown,
// half-open admits exactly one probe, probe success closes, probe failure
// reopens with a doubled cooldown.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(3, time.Second, 42)
	b.now = func() time.Time { return now }

	// Failures below the threshold keep it closed; a success resets the run.
	for i := 0; i < 2; i++ {
		if skip, _ := b.acquire(); skip {
			t.Fatal("closed breaker must not skip")
		}
		b.record(false, true, true)
	}
	b.record(false, true, false) // success resets consecutive count
	for i := 0; i < 2; i++ {
		b.record(false, true, true)
	}
	if b.currentState() != breakerClosed {
		t.Fatalf("state = %v after reset+2 failures, want closed", b.currentState())
	}
	b.record(false, true, true) // third consecutive failure opens
	if b.currentState() != breakerOpen {
		t.Fatalf("state = %v, want open", b.currentState())
	}

	// Open: everything skips the full database until the cooldown expires.
	if skip, probe := b.acquire(); !skip || probe {
		t.Fatalf("open breaker: skip=%v probe=%v, want skip", skip, probe)
	}

	// After the cooldown (jitter is at most +20%), exactly one probe goes
	// through; followers still skip.
	now = now.Add(1300 * time.Millisecond)
	skip, probe := b.acquire()
	if skip || !probe {
		t.Fatalf("post-cooldown: skip=%v probe=%v, want probe", skip, probe)
	}
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.currentState())
	}
	if skip2, probe2 := b.acquire(); !skip2 || probe2 {
		t.Fatalf("second caller during probe: skip=%v probe=%v, want skip", skip2, probe2)
	}

	// Probe failure reopens with doubled cooldown: 1.2x the base must still
	// be open, 2.4x (past 2s + max jitter) must probe again.
	b.record(true, true, true)
	if b.currentState() != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.currentState())
	}
	now = now.Add(1300 * time.Millisecond)
	if skip, _ := b.acquire(); !skip {
		t.Fatal("doubled cooldown must still be open at 1.3x base")
	}
	now = now.Add(1200 * time.Millisecond)
	skip, probe = b.acquire()
	if skip || !probe {
		t.Fatalf("after doubled cooldown: skip=%v probe=%v, want probe", skip, probe)
	}

	// A probe that never reached the full rung (the approximation set
	// answered) releases the probe slot without closing the breaker.
	b.record(true, false, false)
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open after no-op probe", b.currentState())
	}
	skip, probe = b.acquire()
	if skip || !probe {
		t.Fatal("probe slot must be reusable after a no-op probe")
	}

	// Probe success closes the breaker and resets the failure count.
	b.record(true, true, false)
	if b.currentState() != breakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.currentState())
	}
	if skip, _ := b.acquire(); skip {
		t.Fatal("closed breaker must admit")
	}
}

// TestDrainWaitsForInflight: Shutdown lets an in-flight query finish (well
// within the drain deadline), refuses new work, and closes the listener.
func TestDrainWaitsForInflight(t *testing.T) {
	sys := trainedSystem(t)
	srv, base := startServer(t, sys, Config{
		MaxInFlight:    2,
		DefaultTimeout: 5 * time.Second,
		DrainTimeout:   5 * time.Second,
	})

	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point:    faults.PointEngineScan,
		Kind:     faults.KindLatency,
		Latency:  300 * time.Millisecond,
		MaxFires: 1,
	}))
	defer faults.Disable()

	type reply struct {
		status int
		resp   QueryResponse
		err    error
	}
	inflight := make(chan reply, 1)
	go func() {
		status, resp, err := tryPostQuery(base, approxRouteSQL, 0, 0)
		inflight <- reply{status, resp, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the slow query get admitted

	start := time.Now()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	took := time.Since(start)

	r := <-inflight
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight query during drain: status=%d err=%v (%s), want 200", r.status, r.err, r.resp.Error)
	}
	if took > 3*time.Second {
		t.Errorf("drain took %s, should end soon after the in-flight query", took)
	}
	// The listener is gone: new requests fail at the transport level.
	if _, _, err := tryPostQuery(base, approxRouteSQL, 0, 0); err == nil {
		t.Error("request after drain should fail to connect")
	}
}

// TestDrainDeadlineCancelsStragglers: when in-flight queries outlive the
// drain deadline, Shutdown reports the overrun but still returns promptly
// and cancels the work instead of hanging. A request served through Start
// learns of the deadline only through its context, which descends from the
// server's base context (http.Server.BaseContext): one still queued behind the
// slow query must come back canceled at the deadline, not served once the slot
// frees.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	sys := trainedSystem(t)
	srv, base := startServer(t, sys, Config{
		MaxInFlight:    1,
		DefaultTimeout: 5 * time.Second,
		DrainTimeout:   100 * time.Millisecond,
	})

	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point:    faults.PointEngineScan,
		Kind:     faults.KindLatency,
		Latency:  700 * time.Millisecond,
		MaxFires: 1,
	}))
	defer faults.Disable()

	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = tryPostQuery(base, approxRouteSQL, 0, 0)
	}()
	time.Sleep(50 * time.Millisecond) // the slow query holds the only slot
	type reply struct {
		status int
		resp   QueryResponse
		err    error
	}
	queued := make(chan reply, 1)
	go func() {
		status, resp, err := tryPostQuery(base, approxRouteSQL, 0, 0)
		queued <- reply{status, resp, err}
	}()
	time.Sleep(50 * time.Millisecond)

	start := time.Now()
	err := srv.Shutdown(context.Background())
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("shutdown took %s, must not hang on stragglers", took)
	}
	if err == nil {
		t.Error("shutdown should report the drain-deadline overrun")
	}
	r := <-queued
	if r.err != nil || !strings.Contains(r.resp.Error, "canceled while queued") {
		t.Errorf("queued straggler: status=%d err=%v error=%q, want it canceled at the drain deadline",
			r.status, r.err, r.resp.Error)
	}
	<-done
}

// TestObsCountersWired: the serving counters land in the default registry.
func TestObsCountersWired(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	obs.Default().Reset()

	sys := trainedSystem(t)
	srv, base := startServer(t, sys, Config{MaxInFlight: 2})
	if status, resp := postQuery(t, base, approxRouteSQL, 0, 0); status != http.StatusOK {
		t.Fatalf("query: %d (%s)", status, resp.Error)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	snap := obs.Default().Snapshot()
	if snap.Counters[metricRequests] != 1 {
		t.Errorf("counter %s = %d, want 1 (have %v)", metricRequests, snap.Counters[metricRequests], snap.Counters)
	}
	for _, name := range []string{metricRequestSeconds, metricRungApprox} {
		if snap.Histograms[name].Count != 1 {
			t.Errorf("histogram %s holds %d observations, want 1", name, snap.Histograms[name].Count)
		}
	}
}

// TestRegistryNameSetIsClosed: every registry name is declared by a
// package-level handle before the first request, and nothing a request meets —
// forty-odd plan shapes over one to eight FROM entries, a parse error, an
// engine fault, a shed, a breaker-open answer — can mint another. (A name
// per plan shape was a histogram, and 88 kB of sampler ring, per distinct
// FROM-list a client cared to send.)
func TestRegistryNameSetIsClosed(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	sys := trainedSystem(t)
	srv := New(sys, Config{trips: 1, cooldown: time.Hour})
	h := srv.Handler()
	before := registryNames()

	post := func(sql string, maxRows int) (int, QueryResponse) {
		t.Helper()
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"sql": %q, "max_rows": %d}`, sql, maxRows)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: HTTP %d with a body that is not JSON: %v", sql, rec.Code, err)
		}
		return rec.Code, resp
	}

	shapes := map[string]bool{}
	for n := 1; n <= 8; n++ {
		joined, crossed, small := "title t1", "title t1", "t1.id < 3"
		for i := 2; i <= n; i++ {
			joined += fmt.Sprintf(" JOIN title t%d ON t%d.id = t%d.id", i, i-1, i)
			crossed += fmt.Sprintf(", title t%d", i)
			small += fmt.Sprintf(" AND t%d.id < 3", i)
		}
		for _, sql := range []string{
			"SELECT t1.id FROM " + joined + " WHERE t1.id < 5",
			fmt.Sprintf("SELECT t1.id FROM %s WHERE t1.id < 5 AND t1.rating + t%d.rating > 0 ORDER BY t1.id", joined, n),
			"SELECT DISTINCT t1.kind FROM " + joined + " WHERE t1.id < 5 LIMIT 5",
			"SELECT COUNT(*) FROM " + joined + " WHERE t1.id < 5",
			"SELECT t1.id FROM " + crossed + " WHERE " + small + " ORDER BY t1.id LIMIT 4",
		} {
			if status, resp := post(sql, 0); status != http.StatusOK {
				t.Fatalf("%s: HTTP %d (%s)", sql, status, resp.Error)
			}
			_, plan, err := engine.PlannedContext(context.Background(), sys.DB(), mustParse(t, sql), engine.Options{}, false)
			if err != nil {
				t.Fatal(err)
			}
			shapes[plan.Shape()] = true
		}
	}
	if len(shapes) < 40 {
		t.Fatalf("the statements cover %d distinct plan shapes, want at least 40: %v", len(shapes), shapes)
	}

	if status, _ := post("SELECT FROM WHERE", 0); status != http.StatusBadRequest {
		t.Errorf("parse error: HTTP %d, want 400", status)
	}
	// An engine fault on the full database is also the failure that opens the
	// breaker (one trip opens it), so the request after it is routed around.
	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point: faults.PointEngineScan, Kind: faults.KindError, MaxFires: 1,
	}))
	_, resp := post(fullRouteSQL, 0)
	faults.Disable()
	if resp.DegradedReason != "fault" {
		t.Errorf("engine fault: degraded_reason %q, want fault", resp.DegradedReason)
	}
	if _, resp := post(fullRouteSQL, 0); resp.DegradedReason != "breaker" {
		t.Errorf("after the trip: degraded_reason %q, want breaker", resp.DegradedReason)
	}
	for i := 0; i < cap(srv.adm.tickets); i++ {
		srv.adm.tickets <- struct{}{}
	}
	if status, _ := post(approxRouteSQL, 0); status != http.StatusServiceUnavailable {
		t.Errorf("with every ticket taken: HTTP %d, want 503", status)
	}

	if after := registryNames(); after != before {
		t.Errorf("registry names (counters, histograms) grew from %v to %v under requests", before, after)
	}
}

// TestUnbindableStatementIs400AndSparesBreaker: a statement that cannot run
// on any generation is the client's error. Each one answers 400 at once, and
// breakerTrips of them in a row leave the breaker closed, so the next
// full-routed query is still answered by the full database.
func TestUnbindableStatementIs400AndSparesBreaker(t *testing.T) {
	sys := trainedSystem(t)
	if pred, _ := sys.Estimator().Estimate(mustParse(t, fullRouteSQL)); pred >= core.EstimatorThreshold {
		t.Skip("fixture query unexpectedly routed to the approximation set")
	}
	_, base := startServer(t, sys, Config{})
	for i := 0; i < breakerTrips; i++ {
		status, resp := postQuery(t, base, "SELECT nosuch FROM name WHERE birth_year > 1800", 0, 0)
		if status != http.StatusBadRequest || !strings.Contains(resp.Error, `column "nosuch" not found`) {
			t.Fatalf("unbindable statement %d: HTTP %d (%q), want 400 naming the column", i, status, resp.Error)
		}
	}
	var st Stats
	getJSON(t, base+"/stats", &st)
	if st.BreakerState != "closed" {
		t.Fatalf("breaker after unbindable statements = %q, want closed", st.BreakerState)
	}
	status, resp := postQuery(t, base, fullRouteSQL, 0, 0)
	if status != http.StatusOK || resp.Source != "full" || resp.Degraded {
		t.Fatalf("full-routed query after them: HTTP %d source=%q degraded=%v reason=%q, want a clean full answer",
			status, resp.Source, resp.Degraded, resp.DegradedReason)
	}
}

// TestRowBudgetTripSparesBreaker: a row-budget trip is decided by the
// statement and the request, not by the database's health — the database is
// immutable, so the same statement trips the same way every time. breakerTrips
// oversized cross joins (400: no rows to serve) and breakerTrips full-routed
// queries over their max_rows (200, degraded "rows") leave the breaker closed,
// and the next full-routed query is still answered by the full database.
func TestRowBudgetTripSparesBreaker(t *testing.T) {
	sys := trainedSystem(t)
	if pred, _ := sys.Estimator().Estimate(mustParse(t, fullRouteSQL)); pred >= core.EstimatorThreshold {
		t.Skip("fixture query unexpectedly routed to the approximation set")
	}
	_, base := startServer(t, sys, Config{})
	const crossJoin = "SELECT * FROM cast_info c1, cast_info c2, cast_info c3, cast_info c4, cast_info c5"
	breaker := func(after string) {
		t.Helper()
		var st Stats
		getJSON(t, base+"/stats", &st)
		if st.BreakerState != "closed" {
			t.Fatalf("breaker after %s = %q, want closed", after, st.BreakerState)
		}
	}
	for i := 0; i < breakerTrips; i++ {
		status, resp := postQuery(t, base, crossJoin, 0, 0)
		if status != http.StatusBadRequest || !strings.Contains(resp.Error, "row budget") {
			t.Fatalf("oversized cross join %d: HTTP %d (%q), want 400 naming the row budget", i, status, resp.Error)
		}
	}
	breaker("oversized cross joins")
	for i := 0; i < breakerTrips; i++ {
		status, resp := postQuery(t, base, fullRouteSQL, 0, 2)
		if status != http.StatusOK || resp.Source != "full" || resp.DegradedReason != "rows" {
			t.Fatalf("max_rows trip %d: HTTP %d source=%q reason=%q, want 200 from full, degraded rows",
				i, status, resp.Source, resp.DegradedReason)
		}
	}
	breaker("max_rows trips")
	status, resp := postQuery(t, base, fullRouteSQL, 0, 0)
	if status != http.StatusOK || resp.Source != "full" || resp.Degraded {
		t.Fatalf("full-routed query after them: HTTP %d source=%q degraded=%v reason=%q, want a clean full answer",
			status, resp.Source, resp.Degraded, resp.DegradedReason)
	}
}

// TestNonFiniteFloatsAnswerAsNull: the engine can produce ±Inf and NaN (float
// overflow here), which JSON cannot carry. The response must still be a
// complete 200 whose non-finite cells are null — not an empty body behind an
// already-written 200 status.
func TestNonFiniteFloatsAnswerAsNull(t *testing.T) {
	_, base := startServer(t, trainedSystem(t), Config{})
	const huge = "rating * 1e308 * 1e308"
	status, resp := postQuery(t, base,
		"SELECT rating, "+huge+", "+huge+" - "+huge+", 0 - "+huge+" FROM title LIMIT 3", 0, 0)
	if status != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", status, resp.Error)
	}
	if resp.RowCount != 3 || len(resp.Rows) != 3 {
		t.Fatalf("row_count = %d, rows = %d; want 3", resp.RowCount, len(resp.Rows))
	}
	for _, row := range resp.Rows {
		if _, ok := row[0].(float64); !ok {
			t.Errorf("finite rating decoded as %T (%v), want a number", row[0], row[0])
		}
		for j, cell := range row[1:] {
			if cell != nil {
				t.Errorf("non-finite cell %d = %v, want null", j+1, cell)
			}
		}
	}
}

// TestWriteJSONEncodeFailureIs500: a body that cannot be encoded must surface
// as a 500 with a JSON error, never as the intended status over an empty body.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	s := New(nil, Config{})
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, time.Now(), &QueryResponse{Confidence: math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Fatalf("body %q: err %v, want a JSON error", rec.Body.String(), err)
	}
}

// TestConfigValidate: the values asqp-serve must refuse before New (which
// panics on an objective the SLO engine rejects), and the ones it must not —
// zero is "unset" everywhere, and the defaults themselves are valid.
func TestConfigValidate(t *testing.T) {
	for _, ok := range []Config{{}, DefaultConfig(), {SLOAvailability: 0.999, AuditSample: 1, SLOQualityP95: 2, QueueDepth: -1}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", ok, err)
		}
	}
	for name, bad := range map[string]Config{
		"availability 1":        {SLOAvailability: 1},
		"availability above 1":  {SLOAvailability: 1.5},
		"availability negative": {SLOAvailability: -0.1},
		"audit sample above 1":  {AuditSample: 1.01},
		"audit sample negative": {AuditSample: -0.5},
		"quality negative":      {SLOQualityP95: -0.2},
		"query timeout":         {DefaultTimeout: -time.Second},
		"drain timeout":         {DrainTimeout: -time.Second},
		"latency target":        {SLOLatencyP99: -time.Millisecond},
		"retrain timeout":       {Retrain: retrain.Config{Timeout: -time.Minute}},
		"max in-flight":         {MaxInFlight: -1},
		"max rows":              {MaxRows: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, bad)
		} else if strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: error is not one line: %q", name, err)
		}
	}
	// What Validate accepts, New builds without panicking.
	prev := obs.Enabled()
	defer obs.SetEnabled(prev) // arming an SLO turns recording on
	s := New(nil, Config{SLOAvailability: 0.999, SLOLatencyP99: time.Second, SLOQualityP95: 0.2, SLOClock: time.Now})
	_ = s.Shutdown(context.Background())
}
