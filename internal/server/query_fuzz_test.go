package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"asqprl/internal/obs"
)

// FuzzQueryRequest holds /query to its contract on whatever a client sends:
// any method, a raw JSON body or one built from the fields, a GET's q,
// timeout_ms and max_rows. Every response is one JSON object, its status is
// 200, 400, 503 or 504 (never 500: a statement that cannot run is the
// client's error), and every non-200 carries an error message. Each input is
// sent three times, and an answer-cache hit must answer as the miss did.
// After each input the request path has left no footprint: the default
// registry names the counters and histograms it named before the first input,
// and the goroutine count settles back to where the first input found it.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []struct {
		method, body, q    string
		timeoutMs, maxRows int
	}{
		{"POST", "", approxRouteSQL, 0, 0},
		{"POST", "", fullRouteSQL, 0, 3},
		{"POST", "", "SELECT nosuch FROM name WHERE birth_year > 1800", 0, 0},
		{"GET", "", "SELECT t.title, c.role FROM title t JOIN cast_info c ON t.id = c.title_id WHERE t.rating > 8", 0, 0},
		{"GET", "", "SELECT kind, COUNT(*) FROM title GROUP BY kind ORDER BY kind", 1, 0},
		{"GET", "", "SELECT title + 1 FROM title", 0, 0},
		{"GET", "", "SELECT * FROM title a, title b, title c", 0, 0},
		{"GET", "", "SELECT FROM WHERE", 0, 0},
		{"GET", "", "", 0, 0},
		{"PUT", "", approxRouteSQL, 0, 0},
		{"POST", `{"sql": "SELECT * FROM title WHERE rating > 7", "max_rows": 2}`, "", 0, 0},
		{"POST", `{"sql": 7}`, "", 0, 0},
		{"POST", `{"sql": "SELECT * FROM title"`, "", 0, 0},
		{"POST", `{"sql": "SELECT * FROM title WHERE rating > 7"} {"sql": 7} trailing`, "", 0, 0},
		{"POST", `{"sql": "SELECT * FROM title WHERE rat`, "", 0, 0},
		{"POST", atCap(maxQueryBody), "", 0, 0},
		{"POST", atCap(maxQueryBody + 1), "", 0, 0},
	} {
		f.Add(seed.method, seed.body, seed.q, seed.timeoutMs, seed.maxRows)
	}
	// One server for every input, as for a client's session: the breaker
	// carries its state from one input to the next, so a failure may need the
	// inputs before it to replay.
	srv := New(trainedSystem(f), Config{DefaultTimeout: 200 * time.Millisecond})
	h := srv.Handler()
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true) // recording on, so a request that minted a name would show
	f.Cleanup(func() { obs.SetEnabled(wasEnabled) })
	names := registryNames()
	var goroutines int
	var baseline sync.Once
	f.Fuzz(func(t *testing.T, method, body, q string, timeoutMs, maxRows int) {
		baseline.Do(func() { goroutines = countGoroutines() })
		timeoutMs %= 1000 // an input costs at most a second
		target := "/query"
		if body == "" && method == http.MethodPost {
			raw, _ := json.Marshal(QueryRequest{SQL: q, TimeoutMs: timeoutMs, MaxRows: maxRows})
			body = string(raw)
		} else if body == "" {
			target += "?" + url.Values{
				"q":          {q},
				"timeout_ms": {strconv.Itoa(timeoutMs)},
				"max_rows":   {strconv.Itoa(maxRows)},
			}.Encode()
		}
		if _, err := http.NewRequest(method, target, nil); err != nil {
			return // not a method a client can put on the wire
		}
		if method == http.MethodPost {
			checkBodyDecode(t, body)
		}
		// The input goes out three times. A clean set answer sent twice is in
		// the answer cache, so the third send is a hit, and a hit answers what
		// the send before it did, apart from elapsed_ms and trace_id.
		var prev *httptest.ResponseRecorder
		clean := 0 // clean set answers so far
		for send := 1; send <= 3; send++ {
			req, _ := http.NewRequest(method, target, strings.NewReader(body))
			hits := srv.cacheHits.Load()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			hit := srv.cacheHits.Load() > hits
			checkQueryContract(t, rec)
			if hit && prev != nil && cleanSetAnswer(prev) &&
				(rec.Code != prev.Code || !sameAnswer(rec.Body.Bytes(), prev.Body.Bytes())) {
				t.Fatalf("send %d hit the answer cache with HTTP %d %q; the send before answered HTTP %d %q",
					send, rec.Code, rec.Body.Bytes(), prev.Code, prev.Body.Bytes())
			}
			if send == 3 && clean == 2 && !hit {
				t.Fatalf("a clean set answer sent twice missed the answer cache on its third send: %q", rec.Body.Bytes())
			}
			if cleanSetAnswer(rec) {
				clean++
			}
			prev = rec
		}
		if got := registryNames(); got != names {
			t.Fatalf("registry names (counters, histograms) went from %v to %v", names, got)
		}
		if n := waitGoroutinesBelow(goroutines, 5*time.Second); n > goroutines {
			t.Fatalf("%d goroutines after the input, %d before the first", n, goroutines)
		}
	})
}

// atCap is a valid /query body of exactly n bytes: an answerable statement
// padded by a field the request does not have.
func atCap(n int) string {
	const head, tail = `{"sql": "SELECT * FROM title WHERE rating > 7", "pad": "`, `"}`
	return head + strings.Repeat("x", n-len(head)-len(tail)) + tail
}

// checkBodyDecode fails t unless decodeQueryBody reads body as a
// json.Decoder over the capped body does: the same request, or the same
// error text.
func checkBodyDecode(t *testing.T, body string) {
	t.Helper()
	var want, got QueryRequest
	wantErr := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body)), maxQueryBody)).Decode(&want)
	gotErr := decodeQueryBody(io.NopCloser(strings.NewReader(body)), &got)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || (wantErr == nil && got != want) {
		t.Fatalf("decodeQueryBody(%.200q) = %+v, %v; json.Decoder reads %+v, %v", body, got, gotErr, want, wantErr)
	}
}

// checkQueryContract fails t unless rec is one JSON object with status 200,
// 400, 503 or 504, an error message on every non-200.
func checkQueryContract(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	var obj map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil || obj == nil {
		t.Fatalf("HTTP %d with a body that is not one JSON object (%v): %q", rec.Code, err, rec.Body.Bytes())
	}
	switch rec.Code {
	case http.StatusOK:
	case http.StatusBadRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		if msg, _ := obj["error"].(string); msg == "" {
			t.Fatalf("HTTP %d without an error message: %q", rec.Code, rec.Body.Bytes())
		}
	default:
		t.Fatalf("HTTP %d, want 200, 400, 503 or 504: %q", rec.Code, rec.Body.Bytes())
	}
}

// cleanSetAnswer reports whether rec is an answer the answer cache keeps: a
// 200 from the approximation set, not degraded.
func cleanSetAnswer(rec *httptest.ResponseRecorder) bool {
	b := rec.Body.Bytes()
	return rec.Code == http.StatusOK && bytes.Contains(b, []byte(`"source":"approximation"`)) &&
		!bytes.Contains(b, []byte(`"degraded":true`))
}
