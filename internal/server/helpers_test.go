package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/datagen"
	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/workload"
)

// mustParse parses sql or fails the test.
func mustParse(t testing.TB, sql string) *sqlparse.Select {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// fullRouteSQL is an out-of-distribution query the estimator routes past the
// approximation set, forcing the full-database rung (same fixture as the core
// ladder tests).
const fullRouteSQL = "SELECT * FROM name WHERE birth_year > 1800"

// approxRouteSQL is drawn from the training workload, so the estimator
// answers it from the approximation set.
const approxRouteSQL = "SELECT * FROM title WHERE rating > 7"

var (
	trainedOnce sync.Once
	trainedSys  *core.System
	trainedErr  error
)

// trainedSystem trains one small system and caches it across the package's
// tests and benchmarks (training dominates wall-clock otherwise).
func trainedSystem(t testing.TB) *core.System {
	t.Helper()
	trainedOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.K = 150
		cfg.F = 25
		cfg.NumRepresentatives = 8
		cfg.ActionSpaceSize = 64
		cfg.MaxTrackedPerQuery = 60
		cfg.Episodes = 24
		cfg.RL.Workers = 4
		cfg.Seed = 1
		trainedSys, trainedErr = core.Train(datagen.IMDB(0.02, 7), workload.IMDB(18, 11), cfg)
	})
	if trainedErr != nil {
		t.Fatalf("training shared test system: %v", trainedErr)
	}
	return trainedSys
}

// startServer builds and starts a server on a free port, returning it plus
// its base URL. The server is shut down at test cleanup.
func startServer(t *testing.T, sys *core.System, cfg Config) (*Server, string) {
	t.Helper()
	cfg.Addr = "localhost:0"
	srv := New(sys, cfg)
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, "http://" + addr
}

// postQuery sends one query and returns the status code and decoded body.
// Any transport failure or non-JSON body fails the test.
func postQuery(t *testing.T, base, sql string, timeoutMs, maxRows int) (int, QueryResponse) {
	t.Helper()
	status, resp, err := tryPostQuery(base, sql, timeoutMs, maxRows)
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	return status, resp
}

// testClient disables keep-alives so burst tests leave no pooled or spare
// (StateNew) connections behind: http.Server.Shutdown treats a fresh StateNew
// connection as non-idle for ~5s, which would turn every drain after a burst
// into a 5s stall and flake the drain-deadline assertions.
var testClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// tryPostQuery is postQuery without the test dependency, for concurrent use.
func tryPostQuery(base, sql string, timeoutMs, maxRows int) (int, QueryResponse, error) {
	return tryPostQueryWith(testClient, base, sql, timeoutMs, maxRows)
}

// tryPostQueryWith is tryPostQuery on an explicit client (the load benchmark
// needs warm keep-alive connections; the drain tests need none left behind).
func tryPostQueryWith(client *http.Client, base, sql string, timeoutMs, maxRows int) (int, QueryResponse, error) {
	body, _ := json.Marshal(QueryRequest{SQL: sql, TimeoutMs: timeoutMs, MaxRows: maxRows})
	httpResp, err := client.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, QueryResponse{}, err
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return 0, QueryResponse{}, err
	}
	var resp QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return httpResp.StatusCode, resp, fmt.Errorf("malformed response body %q: %v", raw, err)
	}
	return httpResp.StatusCode, resp, nil
}

// getJSON fetches a URL and decodes its JSON body into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// countGoroutines samples the goroutine count after a settle period so
// finished-but-not-yet-reaped goroutines do not count as leaks.
func countGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m <= n {
			return m
		}
		n = m
	}
	return n
}

// registryNames counts the default registry's counter and histogram names.
func registryNames() [2]int {
	snap := obs.Default().Snapshot()
	return [2]int{len(snap.Counters), len(snap.Histograms)}
}

// waitGoroutinesBelow polls until the goroutine count drops to at most want,
// returning the final count.
func waitGoroutinesBelow(want int, patience time.Duration) int {
	deadline := time.Now().Add(patience)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= want {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}
