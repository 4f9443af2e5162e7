package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/faults"
	"asqprl/internal/retrain"
)

// clonedSystem returns a private clone of the shared trained fixture so
// retrain tests — which mutate drift state and retire systems — never touch
// the system other tests serve.
func clonedSystem(t testing.TB) *core.System {
	t.Helper()
	sys, err := trainedSystem(t).Clone()
	if err != nil {
		t.Fatalf("cloning fixture: %v", err)
	}
	return sys
}

// primeDrift pushes n maximally-deviating statements into the drift detector
// directly (the test servers keep DriftObserve off so their own traffic
// cannot add more behind the test's back).
func primeDrift(t testing.TB, sys *core.System, n int) {
	t.Helper()
	sqls := []string{
		"SELECT * FROM name WHERE birth_year > 1950",
		"SELECT * FROM name WHERE birth_year < 1900",
		"SELECT * FROM name WHERE birth_year > 1980",
	}
	for i := 0; i < n; i++ {
		sys.Drift().ObserveDetail(mustParse(t, sqls[i%len(sqls)]), 0)
	}
}

// fastRetrain is a controller config tuned for tests: the gate always passes
// (scores live in [0,1], margin 2), and the rollback window and the failure
// backoff are short.
func fastRetrain() retrain.Config {
	return retrain.Config{
		Enabled:        true,
		Timeout:        2 * time.Minute,
		ValidateMargin: 2,
		RollbackWindow: 100 * time.Millisecond,
		Backoff:        10 * time.Millisecond,
		Seed:           1,
	}
}

// waitRetrain polls the server's controller until cond holds.
func waitRetrain(t *testing.T, srv *Server, timeout time.Duration, cond func(retrain.Status) bool) retrain.Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := srv.ret.Status()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("retrain condition not reached; last status: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDriftTriggerWakesRetrain: with retraining on and no Force, queries that
// carry the drift detector past its count start an attempt — the request that
// reports DriftTriggered wakes the controller.
func TestDriftTriggerWakesRetrain(t *testing.T) {
	sys := clonedSystem(t)
	sys.SetDrift(0.01, 3)
	srv, base := startServer(t, sys, Config{DriftObserve: true, Retrain: fastRetrain()})
	for i := 0; i < 3; i++ {
		sql := fmt.Sprintf("SELECT * FROM name WHERE birth_year > %d", 1800+i)
		if status, resp := postQuery(t, base, sql, 0, 0); status != http.StatusOK {
			t.Fatalf("drifting query %d: HTTP %d (%s)", i, status, resp.Error)
		}
	}
	waitRetrain(t, srv, 10*time.Second, func(st retrain.Status) bool { return st.Attempts >= 1 })
}

// TestHotSwapZeroDowntimeUnderLoad proves the tentpole's serving guarantee:
// a forced retrain completing mid-traffic swaps the system with zero dropped
// requests, and every response is answered by exactly one generation — first
// only generation 1, then only generation 2, never a blend and never a dip.
// The clients repeat one statement, so nearly every answer is an answer-cache
// hit: each must carry the rows its own generation answers, never a row the
// generation before it encoded.
func TestHotSwapZeroDowntimeUnderLoad(t *testing.T) {
	sys := clonedSystem(t)
	primeDrift(t, sys, 3)
	srv, base := startServer(t, sys, Config{
		MaxInFlight:    16,
		QueueDepth:     32,
		DefaultTimeout: 5 * time.Second,
		Retrain:        fastRetrain(),
	})

	const clients = 8
	type sample struct {
		status int
		gen    int64
		count  int
		rows   [][]any
	}
	stop := make(chan struct{})
	perClient := make([][]sample, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				status, resp, err := tryPostQuery(base, approxRouteSQL, 0, 0)
				if err != nil {
					errs[c] = err
					return
				}
				perClient[c] = append(perClient[c], sample{status: status, gen: resp.Generation, count: resp.RowCount, rows: resp.Rows})
			}
		}(c)
	}

	time.Sleep(100 * time.Millisecond) // generation-1 traffic on the record
	var page RetrainzPage
	if code := getJSON(t, base+"/retrainz?force=1", &page); code != http.StatusOK {
		t.Fatalf("/retrainz?force=1 -> %d", code)
	}
	waitRetrain(t, srv, 2*time.Minute, func(st retrain.Status) bool { return st.Swaps == 1 })
	time.Sleep(200 * time.Millisecond) // generation-2 traffic on the record
	close(stop)
	wg.Wait()

	// What each generation answers directly, encoded and decoded as the
	// clients' answers were.
	sys2, _ := srv.System()
	want := map[int64]QueryResponse{}
	for gen, s := range map[int64]*core.System{1: sys, 2: sys2} {
		res, err := s.QueryFrameContext(context.Background(), mustParse(t, approxRouteSQL),
			core.QueryOptions{MaxRows: DefaultConfig().MaxRows, SkipDrift: true})
		if err != nil {
			t.Fatal(err)
		}
		body, err := appendAnswer(nil, &QueryResponse{}, res.Frame)
		var r QueryResponse
		if err == nil {
			err = json.Unmarshal(body, &r)
		}
		if err != nil {
			t.Fatal(err)
		}
		want[gen] = r
	}

	t.Logf("generation answers differ: %v (%d vs %d rows)", !reflect.DeepEqual(want[1], want[2]), want[1].RowCount, want[2].RowCount)
	var total, gen2 int
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatalf("client %d transport error (dropped request): %v", c, errs[c])
		}
		lastGen := int64(0)
		for i, s := range perClient[c] {
			total++
			if s.status != http.StatusOK {
				t.Fatalf("client %d request %d: status %d — a request was dropped across the swap", c, i, s.status)
			}
			if s.gen != 1 && s.gen != 2 {
				t.Fatalf("client %d request %d: generation %d, want 1 or 2", c, i, s.gen)
			}
			if s.gen < lastGen {
				t.Fatalf("client %d observed generation going backward: %d after %d", c, s.gen, lastGen)
			}
			lastGen = s.gen
			if w := want[s.gen]; s.count != w.RowCount || !reflect.DeepEqual(s.rows, w.Rows) {
				t.Fatalf("client %d request %d: generation %d answered %d rows %v, want its own %d rows %v",
					c, i, s.gen, s.count, s.rows, w.RowCount, w.Rows)
			}
			if s.gen == 2 {
				gen2++
			}
		}
	}
	if total == 0 {
		t.Fatal("no traffic recorded")
	}
	if gen2 == 0 {
		t.Fatal("no response was served by the swapped-in generation")
	}
	var stats Stats
	getJSON(t, base+"/stats", &stats)
	if stats.Generation != 2 {
		t.Fatalf("live generation = %d, want 2", stats.Generation)
	}
	if stats.Retrain.Swaps != 1 {
		t.Fatalf("stats retrain swaps = %d, want 1", stats.Retrain.Swaps)
	}
}

// TestRetrainFaultsLeaveIncumbentUntouched injects a failure (error or
// panic) at every retrain stage and proves the serving invariant: the
// incumbent keeps serving, its generation does not move, and its state is
// byte-identical to before the attempt.
func TestRetrainFaultsLeaveIncumbentUntouched(t *testing.T) {
	cases := []struct {
		point string
		kind  faults.Kind
	}{
		{faults.PointRetrainClone, faults.KindError},
		{faults.PointRetrainTrain, faults.KindError},
		{faults.PointRetrainTrain, faults.KindPanic},
		{faults.PointRetrainValidate, faults.KindError},
		{faults.PointRetrainSwap, faults.KindError},
	}
	for _, tc := range cases {
		t.Run(tc.point+"/"+tc.kind.String(), func(t *testing.T) {
			sys := clonedSystem(t)
			primeDrift(t, sys, 3)
			before, err := sys.SaveBytes()
			if err != nil {
				t.Fatal(err)
			}
			srv, base := startServer(t, sys, Config{
				MaxInFlight:    8,
				DefaultTimeout: 5 * time.Second,
				Retrain:        fastRetrain(),
			})
			faults.Enable(faults.NewSchedule(1, faults.Injection{Point: tc.point, Kind: tc.kind}))
			t.Cleanup(faults.Disable)

			if err := srv.ret.Force(); err != nil {
				t.Fatal(err)
			}
			st := waitRetrain(t, srv, 2*time.Minute, func(st retrain.Status) bool {
				return st.Failures >= 1
			})
			if st.Swaps != 0 {
				t.Fatalf("swaps = %d under injected fault, want 0", st.Swaps)
			}

			live, gen := srv.System()
			if live != sys {
				t.Fatal("live system pointer changed under a failed retrain")
			}
			if gen != 1 {
				t.Fatalf("generation = %d after failed retrain, want 1", gen)
			}
			after, err := sys.SaveBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("incumbent bytes changed across a failed retrain at %s", tc.point)
			}
			status, resp, err := tryPostQuery(base, approxRouteSQL, 0, 0)
			if err != nil || status != http.StatusOK {
				t.Fatalf("incumbent stopped serving after failed retrain: status %d err %v", status, err)
			}
			if resp.Generation != 1 {
				t.Fatalf("response generation = %d, want 1", resp.Generation)
			}
		})
	}
}

// TestRetrainChaosUnderOverload runs the same synchronized 4x-overload burst
// pattern twice — once quiet, once with a retrain (train through swap)
// running concurrently — and proves retraining steals no serving capacity:
// the shed rate does not move beyond noise, every response is a well-formed
// 200 or 503, and the retrain itself finishes in a terminal state (swapped,
// or a clean give-up).
func TestRetrainChaosUnderOverload(t *testing.T) {
	sys := clonedSystem(t)
	primeDrift(t, sys, 3)
	// 15ms scan latency makes service time IO-shaped, as in the chaos and
	// load-benchmark tests: offered load turns into admission-gate pressure
	// instead of CPU starvation, so shedding is structural and comparable
	// across the two phases.
	faults.Enable(faults.NewSchedule(1, faults.Injection{
		Point:   faults.PointEngineScan,
		Kind:    faults.KindLatency,
		Latency: 15 * time.Millisecond,
	}))
	t.Cleanup(faults.Disable)

	srv, base := startServer(t, sys, Config{
		MaxInFlight:    4,
		QueueDepth:     4,
		DefaultTimeout: 5 * time.Second,
		Retrain:        fastRetrain(),
	})

	const clientsN = 32 // 4x the 8-request capacity
	const rounds = 6
	burst := func() (ok, shed int) {
		var mu sync.Mutex
		for r := 0; r < rounds; r++ {
			var start, done sync.WaitGroup
			start.Add(1)
			done.Add(clientsN)
			for c := 0; c < clientsN; c++ {
				go func() {
					defer done.Done()
					start.Wait()
					status, _, err := tryPostQuery(base, approxRouteSQL, 0, 0)
					mu.Lock()
					defer mu.Unlock()
					switch {
					case err != nil:
						t.Errorf("transport error under overload: %v", err)
					case status == http.StatusOK:
						ok++
					case status == http.StatusServiceUnavailable:
						shed++
					default:
						t.Errorf("unexpected status %d under overload", status)
					}
				}()
			}
			start.Done()
			done.Wait()
		}
		return ok, shed
	}

	okQuiet, shedQuiet := burst()
	if okQuiet+shedQuiet != clientsN*rounds {
		t.Fatalf("quiet phase accounting: ok %d + shed %d != %d", okQuiet, shedQuiet, clientsN*rounds)
	}

	if err := srv.ret.Force(); err != nil {
		t.Fatal(err)
	}
	okBusy, shedBusy := burst()
	if okBusy+shedBusy != clientsN*rounds {
		t.Fatalf("retrain phase accounting: ok %d + shed %d != %d", okBusy, shedBusy, clientsN*rounds)
	}

	st := waitRetrain(t, srv, 2*time.Minute, func(st retrain.Status) bool {
		return st.Swaps == 1 || st.LastOutcome == "gave_up"
	})
	if st.Swaps == 0 {
		t.Fatalf("retrain did not complete under overload: %+v", st)
	}

	quietRate := float64(shedQuiet) / float64(clientsN*rounds)
	busyRate := float64(shedBusy) / float64(clientsN*rounds)
	if busyRate > quietRate+0.15 {
		t.Fatalf("retraining shed extra traffic: shed rate %.3f while retraining vs %.3f quiet", busyRate, quietRate)
	}
}

// TestFineTuneLeavesCachedStatementsIntact: a cached answer shares its parsed
// statement with the drift detector, so a drift batch of cached statements is
// fine-tuned on through the very pointers the cache re-serves from. The
// fine-tune must mutate none of them: after it, each statement still equals a
// fresh parse of its SQL and the cache re-serves its answer byte for byte.
func TestFineTuneLeavesCachedStatementsIntact(t *testing.T) {
	sys := clonedSystem(t)
	sys.SetDrift(0.05, 1<<20) // the cached statements drift; only a force retrains
	cfg := fastRetrain()
	cfg.ValidateMargin = -2 // every candidate is rejected: generation 1 and its cache stay live
	srv := newTestServer(t, sys, Config{DriftObserve: true, Retrain: cfg})
	h := srv.Handler()
	sqls := []string{approxRouteSQL, approxRouteSQL + " LIMIT 3", "SELECT * FROM title WHERE rating > 3 LIMIT 25"}
	served := map[string][]byte{}
	for _, sql := range sqls {
		for i := 0; i < 3; i++ {
			_, served[sql] = serveQuery(h, sql, 0)
		}
	}
	intact := func(when string) {
		t.Helper()
		for _, sql := range sqls {
			fp := fingerprint(sql, DefaultConfig().MaxRows)
			e := srv.live.Load().cache.get(fp, sql, DefaultConfig().MaxRows)
			if e == nil {
				t.Fatalf("%s: %q is not cached", when, sql)
			}
			if fresh := mustParse(t, sql); !reflect.DeepEqual(e.stmt, fresh) || !reflect.DeepEqual(e.est, fresh) {
				t.Fatalf("%s: the cached statement of %q is no longer what it parses to", when, sql)
			}
		}
	}
	intact("before the fine-tune")
	// The batch is emptied of the misses' own statements and refilled by hits
	// alone, so the fine-tune reads every statement through a cached pointer.
	sys.Drift().ResetDrift()
	for _, sql := range sqls {
		serveQuery(h, sql, 0)
		serveQuery(h, sql, 0)
	}
	if st := srv.statsNow(); st.AnswerCache.Hits != int64(3*len(sqls)) || st.DriftedQueries != 2*len(sqls) {
		t.Fatalf("hits %d, drifted %d; want %d and %d", st.AnswerCache.Hits, st.DriftedQueries, 3*len(sqls), 2*len(sqls))
	}

	if err := srv.ret.Force(); err != nil {
		t.Fatal(err)
	}
	st := waitRetrain(t, srv, 2*time.Minute, func(st retrain.Status) bool { return st.LastOutcome == "gave_up" })
	if st.ValidationRejects == 0 || st.Swaps != 0 {
		t.Fatalf("retrain status %+v: want fine-tuned candidates rejected, none swapped in", st)
	}
	intact("after the fine-tune")
	for _, sql := range sqls {
		hits := srv.cacheHits.Load()
		if _, body := serveQuery(h, sql, 0); srv.cacheHits.Load() == hits || !sameAnswer(body, served[sql]) {
			t.Fatalf("%q re-served as\n%s\nwhere before the fine-tune it was\n%s", sql, body, served[sql])
		}
	}
}
