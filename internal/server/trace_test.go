package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asqprl/internal/obs"
)

// withServerTracing installs a tail-sampling config exporting to a temp dir
// and restores all trace state afterwards. Returns the export directory.
func withServerTracing(t *testing.T, cfg obs.TracingConfig) string {
	t.Helper()
	dir := t.TempDir()
	exp, err := obs.NewJSONLExporter(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Exporter = exp
	wasEnabled := obs.Enabled()
	obs.ConfigureTracing(cfg)
	obs.ResetTraces()
	t.Cleanup(func() {
		obs.DisableTracing()
		_ = exp.Close()
		obs.ResetTraces()
		obs.SetEnabled(wasEnabled)
	})
	return dir
}

// postTraced posts a query with a caller-generated traceparent and returns
// the sent trace ID, the HTTP response, and the decoded body.
func postTraced(t *testing.T, base, sql string, maxRows int) (obs.TraceID, *http.Response, QueryResponse) {
	t.Helper()
	tid := obs.NewTraceID()
	traceparent := obs.FormatTraceparent(tid, obs.NewSpanID(), true)
	body, _ := json.Marshal(QueryRequest{SQL: sql, MaxRows: maxRows})
	req, err := http.NewRequest(http.MethodPost, base+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	httpResp, err := testClient.Do(req)
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	defer httpResp.Body.Close()
	var resp QueryResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatalf("malformed response: %v", err)
	}
	return tid, httpResp, resp
}

// findSnap returns the first span named name in the tree.
func findSnap(snap obs.SpanSnapshot, name string) *obs.SpanSnapshot {
	if snap.Name == name {
		return &snap
	}
	for _, c := range snap.Children {
		if got := findSnap(c, name); got != nil {
			return got
		}
	}
	return nil
}

// hasEvent reports whether any span in the tree carries an event with the
// given name and (optional) attribute value.
func hasEvent(snap obs.SpanSnapshot, name, attrKey string, attrVal any) bool {
	for _, ev := range snap.Events {
		if ev.Name != name {
			continue
		}
		if attrKey == "" || ev.Attrs[attrKey] == attrVal {
			return true
		}
	}
	for _, c := range snap.Children {
		if hasEvent(c, name, attrKey, attrVal) {
			return true
		}
	}
	return false
}

// readExportedTrace scans the JSONL export directory for a record with the
// given trace ID.
func readExportedTrace(t *testing.T, dir, traceID string) (obs.TraceRecord, bool) {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "traces-*.jsonl"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var rec obs.TraceRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("%s: bad JSONL line: %v", f, err)
			}
			if rec.TraceID == traceID {
				return rec, true
			}
		}
	}
	return obs.TraceRecord{}, false
}

// TestTraceEndToEndDegradedQuery is the PR's acceptance test: a request with
// a W3C traceparent that takes the degraded path must yield (a) the same
// trace ID in the JSON response and response header, (b) a /tracez span tree
// spanning server → core → engine naming the degradation cause, (c) a
// matching JSONL export line, and (d) an exemplar on the server latency
// histogram carrying the trace ID.
func TestTraceEndToEndDegradedQuery(t *testing.T) {
	dir := withServerTracing(t, obs.TracingConfig{SampleRate: 0})
	sys := trainedSystem(t)
	_, base := startServer(t, sys, Config{})

	// max_rows=1 on the full-database route trips the engine's row budget;
	// core returns the partial rows tagged degraded("rows").
	tid, httpResp, resp := postTraced(t, base, fullRouteSQL, 1)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %+v", httpResp.StatusCode, resp)
	}
	if !resp.Degraded || resp.DegradedReason != "rows" {
		t.Fatalf("want degraded(rows) response, got %+v", resp)
	}

	// (a) trace identity echoed on both channels.
	if resp.TraceID != tid.String() {
		t.Errorf("response trace_id %q, want %q", resp.TraceID, tid)
	}
	header := httpResp.Header.Get("traceparent")
	if !strings.Contains(header, tid.String()) {
		t.Errorf("response traceparent %q does not carry trace ID %s", header, tid)
	}

	// (b) /tracez serves the full tree: server → core → engine, with the
	// degradation cause recorded as a span event.
	debug := httptest.NewServer(obs.Handler())
	defer debug.Close()
	tzResp, err := http.Get(debug.URL + "/tracez?trace=" + tid.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tzResp.Body.Close()
	if tzResp.StatusCode != http.StatusOK {
		t.Fatalf("/tracez?trace=%s: status %d", tid, tzResp.StatusCode)
	}
	var rec obs.TraceRecord
	if err := json.NewDecoder(tzResp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Verdict != "degraded" {
		t.Errorf("verdict %q, want degraded", rec.Verdict)
	}
	if rec.Root.Name != "server/query" {
		t.Errorf("root span %q, want server/query", rec.Root.Name)
	}
	for _, name := range []string{"core/query", "core/rung/full", "engine/execute", "engine/scan", "engine/project"} {
		if findSnap(rec.Root, name) == nil {
			t.Errorf("trace tree missing %s span", name)
		}
	}
	if !hasEvent(rec.Root, "degraded", "reason", "rows") {
		t.Error("trace has no degraded(reason=rows) event")
	}
	if !hasEvent(rec.Root, "guard_trip", "kind", "rows") {
		t.Error("trace has no guard_trip(kind=rows) event")
	}
	if core := findSnap(rec.Root, "core/query"); core != nil {
		if core.Degraded != "rows" {
			t.Errorf("core/query degraded = %q, want rows", core.Degraded)
		}
		if sql, _ := core.Attrs["sql"].(string); sql == "" {
			t.Error("core/query missing canonical sql attribute")
		}
	}
	// Every span in the tree shares the trace ID (single connected tree).
	var walk func(s obs.SpanSnapshot)
	walk = func(s obs.SpanSnapshot) {
		if s.TraceID != tid.String() {
			t.Errorf("span %s has trace ID %s, want %s", s.Name, s.TraceID, tid)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(rec.Root)

	// (c) the same trace landed in the JSONL export.
	exported, ok := readExportedTrace(t, dir, tid.String())
	if !ok {
		t.Fatalf("trace %s not found in JSONL export dir %s", tid, dir)
	}
	if exported.Verdict != "degraded" || exported.Root.Name != "server/query" {
		t.Errorf("exported record mismatch: %+v", exported)
	}

	// (d) /metrics serves the server latency histogram with an exemplar
	// carrying the trace ID.
	if !hasExemplar(t, debug.URL, "server/request_seconds", tid) {
		t.Error("/metrics: no exemplar with the request's trace ID on server/request_seconds")
	}
}

// hasExemplar reports whether the /metrics JSON snapshot served at base holds
// an exemplar of trace tid on histogram name.
func hasExemplar(t *testing.T, base, name string, tid obs.TraceID) bool {
	t.Helper()
	var snap obs.Snapshot
	getJSON(t, base+"/metrics", &snap)
	for _, ex := range snap.Histograms[name].Exemplars {
		if ex.TraceID == tid.String() {
			return true
		}
	}
	return false
}

// TestShedRequestProducesTrace verifies trace propagation through the
// admission path: a request shed with 503 still yields a kept trace whose
// span events name the cause.
func TestShedRequestProducesTrace(t *testing.T) {
	withServerTracing(t, obs.TracingConfig{SampleRate: 0})
	sys := trainedSystem(t)
	// QueueDepth -1 means a zero-length queue (0 would default to MaxInFlight).
	srv, base := startServer(t, sys, Config{MaxInFlight: 1, QueueDepth: -1})

	// Occupy the only execution slot so the next request is shed.
	if err := srv.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.adm.release()

	tid, httpResp, resp := postTraced(t, base, approxRouteSQL, 0)
	if httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", httpResp.StatusCode)
	}
	if resp.TraceID != tid.String() {
		t.Errorf("shed response trace_id %q, want %q", resp.TraceID, tid)
	}
	rec, ok := obs.KeptTrace(tid.String())
	if !ok {
		t.Fatal("shed request left no kept trace")
	}
	if rec.Verdict != "error" {
		t.Errorf("verdict %q, want error (shed marks the span errored)", rec.Verdict)
	}
	if !hasEvent(rec.Root, "shed", "cause", "admission") {
		t.Errorf("trace missing shed(cause=admission) event: %+v", rec.Root.Events)
	}
}

// TestBreakerOpenProducesDegradedTrace verifies trace propagation through the
// breaker path: with the breaker open, the degraded answer's trace names the
// breaker at both the server (breaker_open) and core (breaker_skip) layers.
func TestBreakerOpenProducesDegradedTrace(t *testing.T) {
	withServerTracing(t, obs.TracingConfig{SampleRate: 0})
	sys := trainedSystem(t)
	srv, base := startServer(t, sys, Config{trips: 1})

	// One recorded full-rung failure opens the breaker (threshold 1).
	srv.brk.record(false, true, true)
	if got := srv.brk.currentState().String(); got != "open" {
		t.Fatalf("breaker state %q after trip, want open", got)
	}

	tid, httpResp, resp := postTraced(t, base, fullRouteSQL, 0)
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %+v", httpResp.StatusCode, resp)
	}
	if !resp.Degraded || resp.DegradedReason != "breaker" {
		t.Fatalf("want degraded(breaker), got %+v", resp)
	}
	if resp.TraceID != tid.String() {
		t.Errorf("response trace_id %q, want %q", resp.TraceID, tid)
	}
	rec, ok := obs.KeptTrace(tid.String())
	if !ok {
		t.Fatal("breaker-degraded request left no kept trace")
	}
	if rec.Verdict != "degraded" {
		t.Errorf("verdict %q, want degraded", rec.Verdict)
	}
	if !hasEvent(rec.Root, "breaker_open", "", nil) {
		t.Error("trace missing server-side breaker_open event")
	}
	if !hasEvent(rec.Root, "breaker_skip", "rung", "full") {
		t.Error("trace missing core-side breaker_skip event")
	}
	if !hasEvent(rec.Root, "degraded", "reason", "breaker") {
		t.Error("trace missing degraded(reason=breaker) event")
	}
}

// TestInvalidTraceparentIgnored: a garbage traceparent must not fail the
// request — the server falls back to a fresh trace ID.
func TestInvalidTraceparentIgnored(t *testing.T) {
	withServerTracing(t, obs.TracingConfig{SampleRate: 1})
	sys := trainedSystem(t)
	_, base := startServer(t, sys, Config{})

	body, _ := json.Marshal(QueryRequest{SQL: approxRouteSQL})
	req, _ := http.NewRequest(http.MethodPost, base+"/query", bytes.NewReader(body))
	req.Header.Set("traceparent", "zz-not-a-traceparent")
	httpResp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp QueryResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with bad traceparent, want 200", httpResp.StatusCode)
	}
	if resp.TraceID == "" {
		t.Error("no fresh trace ID assigned when traceparent is invalid")
	}
}

// TestDrainLeavesNoTraceGoroutines: serving traced queries, exporting them,
// and draining must not leak goroutines (the exporter is synchronous; the
// sampler owns no goroutines).
func TestDrainLeavesNoTraceGoroutines(t *testing.T) {
	withServerTracing(t, obs.TracingConfig{SampleRate: 1})
	sys := trainedSystem(t)
	before := countGoroutines()
	srv, base := startServer(t, sys, Config{})
	for i := 0; i < 8; i++ {
		postTraced(t, base, approxRouteSQL, 0)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if after := waitGoroutinesBelow(before, 5*time.Second); after > before {
		t.Errorf("goroutines after traced drain: %d, want ≤ %d", after, before)
	}
}
