// Command asqp-loadgen is a closed-loop load generator for asqp-serve: N
// concurrent clients each fire queries back-to-back at the server for a fixed
// duration, and the run's throughput, latency quantiles, and shed rate are
// printed. The scenario and check flags turn it into a gate: the process
// exits non-zero when a response is malformed or a check fails.
//
// Closed-loop means offered load scales with -clients relative to the
// server's -max-inflight: clients = 4x max-inflight probes the shedding
// behavior at 4x capacity.
//
// Usage:
//
//	asqp-serve -dataset imdb -light -max-inflight 8 &
//	asqp-loadgen -url http://localhost:8080 -clients 32 -duration 10s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"asqprl/internal/obs"
)

// result counts one run's responses by outcome.
type result struct {
	Requests, OK, Degraded, Shed, Errors, Malformed int64
	// WithObservedError counts OK responses carrying a well-formed
	// observed_error field (present only when the server shadow-audits).
	WithObservedError int64
}

type queryList []string

func (q *queryList) String() string { return strings.Join(*q, "; ") }
func (q *queryList) Set(v string) error {
	*q = append(*q, v)
	return nil
}

func main() {
	url := flag.String("url", "http://localhost:8080", "asqp-serve base URL")
	clients := flag.Int("clients", 16, "concurrent closed-loop clients")
	duration := flag.Duration("duration", 10*time.Second, "run length")
	timeoutMs := flag.Int("timeout-ms", 0, "per-query timeout_ms sent to the server (0 = server default)")
	trace := flag.Bool("traceparent", true, "send a W3C traceparent header per request and check the server echoes the trace ID")
	quality := flag.Bool("quality", false, "after the run, fetch /qualityz and fail unless the audit block is well-formed")
	scenario := flag.String("scenario", "", "traffic scenario: empty (steady mix), drift-storm (shift the query mix mid-run, then require a completed retrain or clean backoff), or slo-burn (steady traffic against an impossible latency target; require a fast_burn on /sloz plus a flight-recorder bundle)")
	retrainWait := flag.Duration("retrain-wait", 45*time.Second, "drift-storm: how long to wait after the run for the server's retrain to reach a terminal state")
	sloGate := flag.Bool("slo-gate", false, "after the run, fetch /sloz and fail unless the page is well-formed and no SLO is fast-burning")
	burnWait := flag.Duration("slo-burn-wait", 30*time.Second, "slo-burn: how long to wait for fast_burn and a captured bundle after the run")
	expectRecovery := flag.Bool("expect-recovery", false, "require the server's /stats to report a completed WAL recovery with replayed frames (kill-and-restart smoke)")
	var queries queryList
	flag.Var(&queries, "query", "query to fire (repeatable; defaults to an IMDB mix)")
	flag.Parse()

	if *scenario != "" && *scenario != "drift-storm" && *scenario != "slo-burn" {
		fatal(fmt.Errorf("unknown scenario %q (want drift-storm or slo-burn)", *scenario))
	}
	if len(queries) == 0 {
		queries = queryList{
			"SELECT * FROM title WHERE rating > 7",
			"SELECT name FROM name WHERE birth_year > 1980",
			"SELECT * FROM title t JOIN cast_info c ON t.id = c.title_id WHERE t.rating > 8",
		}
	}
	// The drift-storm second-half mix: queries far from the typical training
	// workload, so the server's estimator sees low similarity and the drift
	// detector accumulates evidence (Section 4.4's interest shift, compressed
	// into one run).
	driftQueries := queryList{
		"SELECT * FROM name WHERE birth_year > 1985",
		"SELECT * FROM name WHERE birth_year < 1890",
		"SELECT name, birth_year FROM name WHERE birth_year > 1970",
	}

	// Wait for readiness so training time is not billed as latency.
	if err := waitReady(*url, 5*time.Minute); err != nil {
		fatal(err)
	}

	if *expectRecovery {
		if err := checkRecovery(&http.Client{Timeout: 10 * time.Second}, *url); err != nil {
			fatal(err)
		}
	}

	var (
		mu        sync.Mutex
		latencies []float64 // milliseconds
		res       result
	)
	client := &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	deadline := start.Add(*duration)
	storm := start.Add(*duration / 2) // drift-storm: the mix shifts here
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				mix := queries
				if *scenario == "drift-storm" && time.Now().After(storm) {
					mix = driftQueries
				}
				sql := mix[(id+i)%len(mix)]
				// Each request carries its own W3C trace identity; a traced
				// server must echo the same trace ID back, so a mismatch is a
				// correctness failure, not a formatting nit.
				var traceparent string
				var tid obs.TraceID
				if *trace {
					tid = obs.NewTraceID()
					traceparent = obs.FormatTraceparent(tid, obs.NewSpanID(), true)
				}
				t0 := time.Now()
				status, body, err := post(client, *url+"/query", sql, *timeoutMs, traceparent)
				ms := float64(time.Since(t0).Microseconds()) / 1000
				mu.Lock()
				res.Requests++
				latencies = append(latencies, ms)
				switch {
				case err != nil:
					res.Errors++
				case !json.Valid(body):
					res.Malformed++
				case traceparent != "" && !traceIDMatches(body, tid):
					res.Malformed++
				case !observedErrorWellFormed(body):
					res.Malformed++
				case status == http.StatusOK:
					res.OK++
					if bytes.Contains(body, []byte(`"degraded":true`)) {
						res.Degraded++
					}
					if bytes.Contains(body, []byte(`"observed_error"`)) {
						res.WithObservedError++
					}
				case status == http.StatusServiceUnavailable:
					res.Shed++
				default:
					res.Errors++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Float64s(latencies)
	var mean, shedRate float64
	for _, l := range latencies {
		mean += l / float64(len(latencies))
	}
	if res.Requests > 0 {
		shedRate = float64(res.Shed) / float64(res.Requests)
	}
	fmt.Printf("clients=%d: %d requests in %s (%.1f qps)\n", *clients, res.Requests,
		elapsed.Round(time.Millisecond), float64(res.Requests)/elapsed.Seconds())
	fmt.Printf("  latency: mean %.2fms  p50 %.2fms  p99 %.2fms\n", mean, quantile(latencies, 0.50), quantile(latencies, 0.99))
	fmt.Printf("  ok %d (degraded %d), shed %d (%.1f%%), errors %d, malformed %d\n",
		res.OK, res.Degraded, res.Shed, 100*shedRate, res.Errors, res.Malformed)
	if res.WithObservedError > 0 {
		fmt.Printf("  observed_error present on %d responses\n", res.WithObservedError)
	}
	if res.Malformed > 0 {
		fatal(fmt.Errorf("%d malformed responses (invalid JSON, trace mismatch, or bad observed_error)", res.Malformed))
	}
	if *quality {
		if err := checkQuality(client, *url); err != nil {
			fatal(err)
		}
	}
	if *scenario == "drift-storm" {
		if err := checkRetrain(client, *url, *retrainWait); err != nil {
			fatal(err)
		}
	}
	if *scenario == "slo-burn" {
		if err := checkSLOBurn(client, *url, *burnWait); err != nil {
			fatal(err)
		}
	}
	if *sloGate {
		if err := checkSLOGate(client, *url); err != nil {
			fatal(err)
		}
	}
}

func post(client *http.Client, url, sql string, timeoutMs int, traceparent string) (int, []byte, error) {
	req := map[string]any{"sql": sql}
	if timeoutMs > 0 {
		req["timeout_ms"] = timeoutMs
	}
	payload, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("traceparent", traceparent)
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	return resp.StatusCode, body, err
}

// observedErrorWellFormed checks that a response either omits observed_error
// (no audit evidence yet, or auditing off) or carries a finite value in
// [0, 1] — relative error is a fraction by construction, so anything else is
// a server bug.
func observedErrorWellFormed(body []byte) bool {
	if !bytes.Contains(body, []byte(`"observed_error"`)) {
		return true
	}
	var resp struct {
		ObservedError *float64 `json:"observed_error"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || resp.ObservedError == nil {
		return false
	}
	v := *resp.ObservedError
	return v >= 0 && v <= 1
}

// checkQuality fetches /qualityz and validates the audit block: counters
// non-negative and consistent, coverage and error quantiles in [0, 1], and
// each shape's quantiles ordered p50 ≤ p95 ≤ max. It is the e2e guard that
// the quality surface stays well-formed under real traffic.
func checkQuality(client *http.Client, base string) error {
	resp, err := client.Get(base + "/qualityz")
	if err != nil {
		return fmt.Errorf("/qualityz: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return fmt.Errorf("/qualityz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/qualityz: HTTP %d", resp.StatusCode)
	}
	var page struct {
		Audit struct {
			Enabled   bool    `json:"enabled"`
			Eligible  int64   `json:"eligible"`
			Sampled   int64   `json:"sampled"`
			Completed int64   `json:"completed"`
			Failed    int64   `json:"failed"`
			Coverage  float64 `json:"coverage"`
			ErrorP50  float64 `json:"error_p50"`
			ErrorP95  float64 `json:"error_p95"`
			ErrorMax  float64 `json:"error_max"`
		} `json:"audit"`
		Shapes []struct {
			Shape string  `json:"shape"`
			Count int64   `json:"count"`
			P50   float64 `json:"p50"`
			P95   float64 `json:"p95"`
			Max   float64 `json:"max"`
		} `json:"shapes"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return fmt.Errorf("/qualityz: bad JSON: %w", err)
	}
	a := page.Audit
	if !a.Enabled {
		return fmt.Errorf("/qualityz: auditing not enabled on the server")
	}
	const eps = 1e-9
	switch {
	case a.Eligible < 0 || a.Sampled < 0 || a.Completed < 0 || a.Failed < 0:
		return fmt.Errorf("/qualityz: negative audit counter: %+v", a)
	case a.Sampled > a.Eligible:
		return fmt.Errorf("/qualityz: sampled %d > eligible %d", a.Sampled, a.Eligible)
	case a.Coverage < 0 || a.Coverage > 1:
		return fmt.Errorf("/qualityz: coverage %v outside [0,1]", a.Coverage)
	case a.ErrorP50 < 0 || a.ErrorP95 > 1+eps || a.ErrorP50 > a.ErrorP95+eps || a.ErrorP95 > a.ErrorMax+eps:
		return fmt.Errorf("/qualityz: inconsistent error quantiles p50=%v p95=%v max=%v", a.ErrorP50, a.ErrorP95, a.ErrorMax)
	}
	for _, sh := range page.Shapes {
		if sh.Shape == "" || sh.Count <= 0 {
			return fmt.Errorf("/qualityz: malformed shape entry %+v", sh)
		}
		if sh.P50 < 0 || sh.P50 > sh.P95+eps || sh.P95 > sh.Max+eps || sh.Max > 1+eps {
			return fmt.Errorf("/qualityz: shape %q quantiles out of order: p50=%v p95=%v max=%v", sh.Shape, sh.P50, sh.P95, sh.Max)
		}
	}
	fmt.Printf("quality: audited %d/%d eligible (coverage %.0f%%), error p50 %.3f p95 %.3f max %.3f over %d shapes\n",
		a.Completed, a.Eligible, 100*a.Coverage, a.ErrorP50, a.ErrorP95, a.ErrorMax, len(page.Shapes))
	return nil
}

// checkRetrain polls /retrainz until the server's retrain controller reaches
// a terminal outcome for the drift storm: a completed hot swap (success), or
// a clean failure path — validation reject, give-up, or armed backoff — with
// the incumbent still serving. Anything else within the wait (controller
// disabled, no drift picked up, no attempt started) fails the run: the storm
// was supposed to trip the pipeline.
func checkRetrain(client *http.Client, base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	var page struct {
		Generation int64 `json:"generation"`
		Status     struct {
			Enabled     bool   `json:"enabled"`
			State       string `json:"state"`
			Attempts    int64  `json:"attempts"`
			Swaps       int64  `json:"swaps"`
			Rollbacks   int64  `json:"rollbacks"`
			Failures    int64  `json:"failures"`
			LastOutcome string `json:"last_outcome"`
			LastError   string `json:"last_error"`
		} `json:"status"`
	}
	for {
		resp, gerr := client.Get(base + "/retrainz")
		if gerr != nil {
			return fmt.Errorf("/retrainz: %w", gerr)
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr != nil {
			return fmt.Errorf("/retrainz: %w", rerr)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/retrainz: HTTP %d: %s", resp.StatusCode, body)
		}
		if uerr := json.Unmarshal(body, &page); uerr != nil {
			return fmt.Errorf("/retrainz: bad JSON: %w", uerr)
		}
		st := page.Status
		if !st.Enabled {
			return fmt.Errorf("drift-storm needs a server started with -retrain (controller reports disabled)")
		}
		switch {
		case st.Swaps > 0:
			fmt.Printf("retrain: %d swap(s), %d rollback(s); serving generation %d (state %s)\n",
				st.Swaps, st.Rollbacks, page.Generation, st.State)
			return nil
		case st.Failures > 0 && (st.State == "backoff" || st.LastOutcome == "gave_up"):
			// Clean backoff: attempts ran, failed validated-or-faulted, and the
			// controller is holding off — the incumbent never stopped serving.
			fmt.Printf("retrain: no swap, clean backoff after %d attempt(s) (%s: %s); still generation %d\n",
				st.Attempts, st.LastOutcome, st.LastError, page.Generation)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("retrain reached no terminal state within %s: %+v", wait, st)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// checkRecovery validates the /stats recovery block after a kill-and-restart:
// the server must have gone through WAL recovery, replayed at least one frame
// (the pre-kill traffic wrote some), and report internally consistent
// counters.
func checkRecovery(client *http.Client, base string) error {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return fmt.Errorf("/stats: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return fmt.Errorf("/stats: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	var page struct {
		WAL *struct {
			Dir      string `json:"dir"`
			Segments int    `json:"segments"`
			Failed   string `json:"failed"`
		} `json:"wal"`
		Recovery *struct {
			Segments       int64   `json:"segments"`
			FramesReplayed int64   `json:"frames_replayed"`
			FramesDropped  int64   `json:"frames_dropped"`
			TruncatedBytes int64   `json:"truncated_bytes"`
			DriftRestored  int64   `json:"drift_restored"`
			ServedSeen     int64   `json:"served_seen"`
			WallMs         float64 `json:"wall_ms"`
		} `json:"recovery"`
		DriftedQueries int64 `json:"drifted_queries"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return fmt.Errorf("/stats: bad JSON: %w", err)
	}
	switch {
	case page.WAL == nil:
		return fmt.Errorf("expected recovery: server has no WAL (start it with -wal-dir)")
	case page.WAL.Failed != "":
		return fmt.Errorf("expected recovery: WAL is in failed state: %s", page.WAL.Failed)
	case page.Recovery == nil:
		return fmt.Errorf("expected recovery: /stats has no recovery block (server did not replay a WAL)")
	}
	r := page.Recovery
	switch {
	case r.FramesReplayed <= 0:
		return fmt.Errorf("expected recovery: 0 frames replayed — pre-kill traffic did not survive")
	case r.FramesDropped < 0 || r.TruncatedBytes < 0 || r.DriftRestored < 0 || r.WallMs < 0:
		return fmt.Errorf("expected recovery: negative recovery counter: %+v", *r)
	case r.DriftRestored > 0 && page.DriftedQueries < r.DriftRestored:
		return fmt.Errorf("expected recovery: restored %d drift observations but detector holds %d",
			r.DriftRestored, page.DriftedQueries)
	}
	fmt.Printf("recovery: %d segments, %d frames replayed (%d drift restored, %d served), %d dropped, %d torn bytes, %.1fms\n",
		r.Segments, r.FramesReplayed, r.DriftRestored, r.ServedSeen, r.FramesDropped, r.TruncatedBytes, r.WallMs)
	return nil
}

// slozPage is the subset of /sloz the load generator validates.
type slozPage struct {
	Enabled bool `json:"enabled"`
	SLOs    []struct {
		Name           string  `json:"name"`
		Kind           string  `json:"kind"`
		State          string  `json:"state"`
		BudgetConsumed float64 `json:"budget_consumed"`
		Burns          []struct {
			Window    string  `json:"window"`
			ErrorRate float64 `json:"error_rate"`
			Burn      float64 `json:"burn"`
			Events    int64   `json:"events"`
		} `json:"burns"`
	} `json:"slos"`
	FastBurning []string `json:"fast_burning"`
}

func fetchSloz(client *http.Client, base string) (slozPage, error) {
	var page slozPage
	resp, err := client.Get(base + "/sloz")
	if err != nil {
		return page, fmt.Errorf("/sloz: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return page, fmt.Errorf("/sloz: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return page, fmt.Errorf("/sloz: HTTP %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return page, fmt.Errorf("/sloz: bad JSON: %w", err)
	}
	return page, nil
}

// validateSloz checks the structural invariants of an SLO page: four burn
// windows per SLO, error rates and budget in [0,1], burns non-negative, and
// a known state label.
func validateSloz(page slozPage) error {
	if !page.Enabled {
		return fmt.Errorf("/sloz: SLO engine not enabled on the server")
	}
	known := map[string]bool{"no_data": true, "ok": true, "slow_burn": true, "fast_burn": true}
	for _, s := range page.SLOs {
		if !known[s.State] {
			return fmt.Errorf("/sloz: SLO %q has unknown state %q", s.Name, s.State)
		}
		if len(s.Burns) != 4 {
			return fmt.Errorf("/sloz: SLO %q has %d burn windows, want 4", s.Name, len(s.Burns))
		}
		if s.BudgetConsumed < 0 || s.BudgetConsumed > 1 {
			return fmt.Errorf("/sloz: SLO %q budget_consumed %v outside [0,1]", s.Name, s.BudgetConsumed)
		}
		for _, b := range s.Burns {
			if b.ErrorRate < 0 || b.ErrorRate > 1 || b.Burn < 0 || b.Events < 0 {
				return fmt.Errorf("/sloz: SLO %q window %s malformed: %+v", s.Name, b.Window, b)
			}
		}
	}
	return nil
}

// checkSLOGate passes when the SLO page is well-formed and nothing is
// fast-burning — the steady-state gate for healthy smoke runs.
func checkSLOGate(client *http.Client, base string) error {
	page, err := fetchSloz(client, base)
	if err != nil {
		return err
	}
	if err := validateSloz(page); err != nil {
		return err
	}
	for _, s := range page.SLOs {
		if s.State == "fast_burn" {
			return fmt.Errorf("slo-gate: SLO %q is fast-burning (budget %.0f%% consumed)", s.Name, 100*s.BudgetConsumed)
		}
	}
	if len(page.FastBurning) > 0 {
		return fmt.Errorf("slo-gate: fast_burning = %v", page.FastBurning)
	}
	fmt.Printf("slo-gate: %d SLO(s) healthy\n", len(page.SLOs))
	return nil
}

// checkSLOBurn is the slo-burn scenario's verdict: the run's traffic (fired
// at a server with an impossible latency target and tiny windows) must push
// some SLO into fast_burn, and the flight recorder must have captured at
// least one bundle for it.
func checkSLOBurn(client *http.Client, base string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	var burning string
	for {
		page, perr := fetchSloz(client, base)
		if perr != nil {
			return perr
		}
		if verr := validateSloz(page); verr != nil {
			return verr
		}
		if len(page.FastBurning) > 0 {
			burning = page.FastBurning[0]
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("slo-burn: no SLO reached fast_burn within %s: %+v", wait, page.SLOs)
		}
		time.Sleep(200 * time.Millisecond)
	}
	// The fast-burn transition triggers an async capture; poll /debugz for it.
	for {
		resp, derr := client.Get(base + "/debugz")
		if derr != nil {
			return fmt.Errorf("/debugz: %w", derr)
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr != nil {
			return fmt.Errorf("/debugz: %w", rerr)
		}
		var page struct {
			Enabled bool `json:"enabled"`
			Status  struct {
				Captures   int64    `json:"captures"`
				LastReason string   `json:"last_reason"`
				Bundles    []string `json:"bundles"`
			} `json:"status"`
		}
		if uerr := json.Unmarshal(body, &page); uerr != nil {
			return fmt.Errorf("/debugz: bad JSON: %w", uerr)
		}
		if !page.Enabled {
			return fmt.Errorf("slo-burn needs a server started with -diag-dir (flight recorder disabled)")
		}
		if page.Status.Captures > 0 {
			fmt.Printf("slo-burn: %q fast-burning; %d bundle(s) captured (last reason %q)\n",
				burning, page.Status.Captures, page.Status.LastReason)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("slo-burn: fast_burn reached but no bundle captured within %s", wait)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// traceIDMatches checks that a response either omits trace_id (tracing off
// server-side) or echoes exactly the trace ID this request was sent under.
func traceIDMatches(body []byte, tid obs.TraceID) bool {
	var resp struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false
	}
	return resp.TraceID == "" || resp.TraceID == tid.String()
}

func waitReady(base string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			ready := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ready {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %s", base, patience)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// quantile returns the q-th quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asqp-loadgen:", err)
	os.Exit(1)
}
