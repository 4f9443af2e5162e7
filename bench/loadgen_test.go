package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"asqprl/internal/server"
)

func TestParseTail(t *testing.T) {
	// Built from the server's own response type, so a reordered or renamed
	// field in the wire format fails here before it fails a run.
	big := make([][]any, 400)
	for i := range big {
		big[i] = []any{i, `tricky "row_count":7,"source":"full" cell`, 1.5}
	}
	cases := []server.QueryResponse{
		{Columns: []string{"id", "s", "v"}, Rows: big, RowCount: 400, Source: "full", Generation: 1, TraceID: "abc"},
		{Columns: []string{"id"}, RowCount: 0, Source: "approximation", PredictedScore: 0.9, Confidence: 0.8, Generation: 1},
		{Columns: []string{"id"}, Rows: big[:3], RowCount: 3, Source: "approximation", Degraded: true, DegradedReason: "breaker", Generation: 2},
	}
	for _, c := range cases {
		body, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		rows, approx, degraded, ok := parseTail(append(body, '\n'))
		if !ok || rows != c.RowCount || approx != (c.Source == "approximation") || degraded != c.Degraded {
			t.Errorf("parseTail = (%d, %v, %v, %v) for row_count %d source %s degraded %v",
				rows, approx, degraded, ok, c.RowCount, c.Source, c.Degraded)
		}
	}
	for _, bad := range []string{``, `{"error":"overloaded"}`, `{"row_count":12}`, `{"row_count":x,"source":"full"}`, `{"row_count":3,"source":"elsewhere"}`} {
		if _, _, _, ok := parseTail([]byte(bad)); ok {
			t.Errorf("parseTail accepted %q", bad)
		}
	}
}

// scripted answers each SQL text with a canned status and body.
func scripted(t *testing.T, answers map[string]func(w http.ResponseWriter)) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			SQL string `json:"sql"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad request body: %v", err)
		}
		answer, ok := answers[req.SQL]
		if !ok {
			t.Errorf("unexpected statement %q", req.SQL)
			return
		}
		answer(w)
	}))
}

func okAnswer(rows int, source string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		fmt.Fprintf(w, `{"columns":["id"],"row_count":%d,"source":%q,"elapsed_ms":0.1,"generation":1}`+"\n", rows, source)
	}
}

func TestFailureCounting(t *testing.T) {
	answers := map[string]func(http.ResponseWriter){
		"good": okAnswer(5, "approximation"),
		"shed": func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"row_count":0,"error":"overloaded"}`)
		},
		"degraded": func(w http.ResponseWriter) {
			fmt.Fprintln(w, `{"columns":["id"],"row_count":5,"source":"approximation","degraded":true,"degraded_reason":"deadline","generation":1}`)
		},
		"wrong":   okAnswer(4, "full"),
		"garbled": func(w http.ResponseWriter) { fmt.Fprintln(w, `<html>proxy error</html>`) },
	}
	ts := scripted(t, answers)
	defer ts.Close()
	c := newConn(strings.TrimPrefix(ts.URL, "http://"))
	defer c.close()

	var recs []record
	start := time.Now()
	for _, sql := range []string{"good", "shed", "degraded", "wrong", "garbled"} {
		st := newStmt(sql, famHit, true)
		st.filled, st.spj, st.full, st.approx = true, true, 5, 5 // the oracle says 5 rows on both rungs
		recs = append(recs, oneRequest(c, st, start))
	}
	r := &run{metrics: map[string]float64{}, detail: map[string]any{}}
	if err := r.checkRecords(context.Background(), &oracle{}, recs); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, false, false, false} {
		if recs[i].ok != want {
			t.Errorf("%s: ok = %v, want %v (%s)", recs[i].st.sql, recs[i].ok, want, recs[i].errMsg)
		}
	}
	if len(r.failures) != 4 {
		t.Errorf("%d failed checks recorded, want 4: %v", len(r.failures), r.failures)
	}
	// A failed operation misses the latency limit however fast it was.
	s := samplesOf(recs)
	good := 0
	for _, x := range s {
		if x.ok && x.latency <= time.Hour {
			good++
		}
	}
	if good != 1 {
		t.Errorf("%d operations count as goodput, want 1", good)
	}
	rt := routeShares(recs)
	if rt.shed != 1 || rt.degraded == 0 {
		t.Errorf("routes = %+v, want one shed and a degraded share", rt)
	}
}

func TestVerifyOneChecksTheWholeResponse(t *testing.T) {
	full := func(body string) func(http.ResponseWriter) {
		return func(w http.ResponseWriter) { fmt.Fprintln(w, body) }
	}
	answers := map[string]func(http.ResponseWriter){
		"ok":         full(`{"columns":["id","v"],"rows":[[1,2],[3,4]],"row_count":2,"source":"full","generation":1}`),
		"short rows": full(`{"columns":["id","v"],"rows":[[1,2]],"row_count":2,"source":"full","generation":1}`),
		"ragged":     full(`{"columns":["id","v"],"rows":[[1,2],[3]],"row_count":2,"source":"full","generation":1}`),
		"columns":    full(`{"columns":["id","w"],"rows":[[1,2],[3,4]],"row_count":2,"source":"full","generation":1}`),
		"swapped":    full(`{"columns":["id","v"],"rows":[[1,2],[3,4]],"row_count":2,"source":"full","generation":2}`),
		"count":      full(`{"columns":["id","v"],"rows":[[1,2],[3,4],[5,6]],"row_count":3,"source":"full","generation":1}`),
		"rung":       full(`{"columns":["id","v"],"rows":[[1,2],[3,4]],"row_count":2,"source":"approximation","generation":1}`),
	}
	ts := scripted(t, answers)
	defer ts.Close()
	c := newConn(strings.TrimPrefix(ts.URL, "http://"))
	defer c.close()
	for sql := range answers {
		st := newStmt(sql, famHit, true)
		st.filled, st.full, st.approx, st.columns = true, 2, 1, []string{"id", "v"}
		err := verifyOne(c, st)
		if (err == nil) != (sql == "ok") {
			t.Errorf("verifyOne(%s) = %v", sql, err)
		}
	}
}

// fixedLatency answers every statement after a fixed delay.
type fixedLatency struct{ d time.Duration }

func (f fixedLatency) do(*stmt) (reply, error) {
	time.Sleep(f.d)
	return reply{status: http.StatusOK, rows: 1}, nil
}

func TestLoopsStopOnTimeAndPaceByDueTime(t *testing.T) {
	src, err := newSources(context.Background(), testDB, 1, mixes["explore_miss"])
	if err != nil {
		t.Fatal(err)
	}
	if err := src.miss.prepare(1000); err != nil { // keep generation out of the timed loops
		t.Fatal(err)
	}
	reqs := []requester{fixedLatency{time.Millisecond}, fixedLatency{time.Millisecond}}
	streams := []*connStream{newConnStream(src, mixes["explore_miss"], 1, 0, 2), newConnStream(src, mixes["explore_miss"], 1, 1, 2)}
	start := time.Now()
	recs, err := closedLoop(reqs, streams, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 100*time.Millisecond || took > 400*time.Millisecond {
		t.Errorf("closed loop of 100ms took %v", took)
	}
	if len(recs) < 20 {
		t.Errorf("closed loop completed only %d requests", len(recs))
	}
	paced, err := pacedLoop(reqs, streams, 200, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// 200/s for 0.2 s is 40 requests, whatever the server does.
	if len(paced) != 40 {
		t.Errorf("paced loop sent %d requests, want 40", len(paced))
	}
}
