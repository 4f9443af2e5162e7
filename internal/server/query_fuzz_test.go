package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzQueryRequest holds /query to its contract on whatever a client sends:
// any method, a raw JSON body or one built from the fields, a GET's q,
// timeout_ms and max_rows. Every response is one JSON object, its status is
// 200, 400, 503 or 504 (never 500: a statement that cannot run is the
// client's error), and every non-200 carries an error message.
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
	} {
		f.Add(seed.method, seed.body, seed.q, seed.timeoutMs, seed.maxRows)
	}
	// One server for every input, as for a client's session: the breaker
	// carries its state from one input to the next, so a failure may need the
	// inputs before it to replay.
	h := New(trainedSystem(f), Config{DefaultTimeout: 200 * time.Millisecond}).Handler()
	f.Fuzz(func(t *testing.T, method, body, q string, timeoutMs, maxRows int) {
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
		req, err := http.NewRequest(method, target, strings.NewReader(body))
		if err != nil {
			return // not a method a client can put on the wire
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

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
	})
}
