package server

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/faults"
	"asqprl/internal/obs"
)

// TestChaosOverloadWithFaults is the serving layer's headline safety test:
// concurrent clients offer ≥4x the admission capacity while fault injection
// corrupts scans with errors, latency, and panics. Every request must get a
// well-formed JSON response (success, degraded, shed, or typed error — never
// a hang, crash, or truncated body), and after drain the goroutine count
// must return to baseline.
func TestChaosOverloadWithFaults(t *testing.T) {
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
		trips:          3,
	})

	// Persistent probabilistic chaos: errors, latency, and panics on the
	// scan path, plus join errors. The same seed replays the same pattern.
	// The unconditional 15ms scan latency keeps every handler holding its
	// admission slot long enough that a 32-client burst reliably overruns the
	// 8 tickets, however slowly the clients get scheduled (the suite shares
	// CPU with other packages under `go test ./...`).
	faults.Enable(faults.NewSchedule(7,
		faults.Injection{Point: faults.PointEngineScan, Kind: faults.KindLatency, Latency: 15 * time.Millisecond},
		faults.Injection{Point: faults.PointEngineScan, Kind: faults.KindError, Prob: 0.25},
		faults.Injection{Point: faults.PointEngineScan, Kind: faults.KindPanic, Prob: 0.05},
		faults.Injection{Point: faults.PointEngineJoin, Kind: faults.KindError, Prob: 0.2},
	))
	defer faults.Disable()

	// 32 concurrent clients against capacity 8 (4 slots + 4 queue) = 4x
	// offered load, several rounds each.
	const clients = 32
	const rounds = 6
	queries := []string{
		approxRouteSQL,
		fullRouteSQL,
		"SELECT * FROM title t JOIN cast_info c ON t.id = c.title_id WHERE t.rating > 8",
	}
	type tally struct {
		ok, degraded, shed, errored int
	}
	var (
		mu    sync.Mutex
		total tally
	)
	// Each round is a synchronized 32-way burst: all clients fire at once so
	// the instantaneous offered load really is 4x capacity every round, not
	// just on average.
	for r := 0; r < rounds; r++ {
		var done sync.WaitGroup
		for c := 0; c < clients; c++ {
			done.Add(1)
			go func(id, r int) {
				defer done.Done()
				sql := queries[(id+r)%len(queries)]
				status, resp, err := tryPostQuery(base, sql, 0, 0)
				if err != nil {
					t.Errorf("client %d round %d: transport/body error: %v", id, r, err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				switch {
				case status == http.StatusOK && resp.Degraded:
					total.degraded++
				case status == http.StatusOK:
					total.ok++
				case status == http.StatusServiceUnavailable:
					total.shed++
				case resp.Error != "":
					total.errored++ // typed failure: every rung tripped
				default:
					t.Errorf("client %d round %d: status %d with empty error", id, r, status)
				}
			}(c, r)
		}
		done.Wait()
	}

	want := clients * rounds
	if got := total.ok + total.degraded + total.shed + total.errored; got != want {
		t.Errorf("accounted responses = %d, want %d", got, want)
	}
	if total.ok+total.degraded == 0 {
		t.Error("no request succeeded under chaos")
	}
	if total.shed == 0 {
		t.Error("4x offered load shed nothing — admission control not engaging")
	}
	t.Logf("chaos tally: ok=%d degraded=%d shed=%d errored=%d",
		total.ok, total.degraded, total.shed, total.errored)

	faults.Disable()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown after chaos: %v", err)
	}

	// The availability SLO's inputs agree with what the clients saw.
	snap := obs.Default().Snapshot()
	if got := snap.Counters[metricRequests]; got != int64(want) {
		t.Errorf("%s = %d, clients sent %d", metricRequests, got, want)
	}
	if got := snap.Counters[metricUnavailable]; got != int64(total.shed) {
		t.Errorf("%s = %d, clients saw %d 503s", metricUnavailable, got, total.shed)
	}

	// No goroutine leaks: everything spawned by the server, admission queue,
	// and in-flight queries must be gone after drain.
	after := waitGoroutinesBelow(before+2, 5*time.Second)
	if after > before+2 {
		t.Errorf("goroutines after drain = %d, baseline %d — leak", after, before)
	}
}

// TestBreakerOpensAndRecovers drives the breaker end to end over HTTP:
// persistent full-rung faults open it (full database no longer attempted),
// queries keep getting answers from the approximation set tagged
// "breaker", and once the fault clears a half-open probe closes it again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	sys := trainedSystem(t)
	if pred, _ := sys.Estimator().Estimate(mustParse(t, fullRouteSQL)); pred >= core.EstimatorThreshold {
		t.Skip("fixture query unexpectedly routed to the approximation set")
	}

	srv, base := startServer(t, sys, Config{
		MaxInFlight:    2,
		DefaultTimeout: 2 * time.Second,
		trips:          2,
		cooldown:       300 * time.Millisecond,
	})

	// Fail the first scan of each query (the full-database attempt for a
	// full-routed query); the rung-3 approximation fallback's scan stays
	// clean because each query makes exactly two scans: full, then approx.
	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point: faults.PointEngineScan,
		Kind:  faults.KindError,
		Prob:  0, // always
		After: 0,
	}))

	// Phase 1: two consecutive full-rung failures open the breaker. The
	// injection fails every scan, so these queries fail all rungs (500) or
	// degrade — either way the responses stay well-formed JSON.
	for i := 0; i < 2; i++ {
		status, resp, err := tryPostQuery(base, fullRouteSQL, 0, 0)
		if err != nil {
			t.Fatalf("phase 1 query %d: %v", i, err)
		}
		if status != http.StatusOK && resp.Error == "" {
			t.Fatalf("phase 1 query %d: status %d without error body", i, status)
		}
	}
	var st Stats
	getJSON(t, base+"/stats", &st)
	if st.BreakerState != "open" {
		t.Fatalf("breaker state after consecutive failures = %q, want open", st.BreakerState)
	}

	// Phase 2: faults cleared, breaker still open — queries are answered
	// from the approximation set, tagged Degraded with reason "breaker":
	// the full database was not touched.
	faults.Disable()
	status, resp := postQuery(t, base, fullRouteSQL, 0, 0)
	if status != http.StatusOK {
		t.Fatalf("open-breaker query: status %d (%s), want 200 degraded", status, resp.Error)
	}
	if !resp.Degraded || resp.DegradedReason != "breaker" || resp.Source != "approximation" {
		t.Fatalf("open-breaker answer = degraded=%v reason=%q source=%q, want breaker-degraded approximation",
			resp.Degraded, resp.DegradedReason, resp.Source)
	}

	// Phase 3: after the cooldown a half-open probe reaches the healthy full
	// database, closes the breaker, and full answers resume.
	time.Sleep(500 * time.Millisecond) // cooldown 300ms + 20% jitter < 500ms
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, resp = postQuery(t, base, fullRouteSQL, 0, 0)
		getJSON(t, base+"/stats", &st)
		if st.BreakerState == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed; state=%q last status=%d resp=%+v", st.BreakerState, status, resp)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if status != http.StatusOK || resp.Degraded || resp.Source != "full" {
		t.Errorf("post-recovery answer = status=%d degraded=%v source=%q, want clean full answer",
			status, resp.Degraded, resp.Source)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
