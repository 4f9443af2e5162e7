package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/faults"
	"asqprl/internal/obs"
	"asqprl/internal/wal"
	"asqprl/internal/workload"
)

// serveQuery sends one POST /query for sql under maxRows through h.
func serveQuery(h http.Handler, sql string, maxRows int) (int, []byte) {
	raw, _ := json.Marshal(QueryRequest{SQL: sql, MaxRows: maxRows})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(raw)))
	return rec.Code, rec.Body.Bytes()
}

// perRequest matches what each request writes on its own: elapsed_ms and
// trace_id.
var perRequest = regexp.MustCompile(`,"elapsed_ms":[^,}]*|,"trace_id":"[0-9a-f]*"`)

// sameAnswer reports whether two /query bodies are byte-identical apart from
// elapsed_ms and trace_id.
func sameAnswer(a, b []byte) bool {
	return bytes.Equal(perRequest.ReplaceAll(a, nil), perRequest.ReplaceAll(b, nil))
}

// newTestServer builds an unstarted server over sys, shut down at cleanup.
func newTestServer(t *testing.T, sys *core.System, cfg Config) *Server {
	t.Helper()
	srv := New(sys, cfg)
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv
}

// TestAnswerCacheAdmitsOnSecondSighting: a statement's first clean
// approximation answer leaves only a fingerprint, its second is admitted, and
// its third is a hit that answers byte for byte what the misses did.
func TestAnswerCacheAdmitsOnSecondSighting(t *testing.T) {
	srv := newTestServer(t, trainedSystem(t), Config{})
	h := srv.Handler()
	var first []byte
	for i, want := range []AnswerCacheStats{
		{Entries: 0, Hits: 0, Misses: 1},
		{Entries: 1, Hits: 0, Misses: 2},
		{Entries: 1, Hits: 1, Misses: 2},
	} {
		status, body := serveQuery(h, approxRouteSQL, 0)
		if status != http.StatusOK || !bytes.Contains(body, []byte(`"source":"approximation"`)) {
			t.Fatalf("send %d: HTTP %d %s, want a clean approximation answer", i+1, status, body)
		}
		got := srv.statsNow().AnswerCache
		if got.Entries != want.Entries || got.Hits != want.Hits || got.Misses != want.Misses {
			t.Fatalf("after send %d: answer_cache %+v, want %+v", i+1, got, want)
		}
		if first == nil {
			first = body
		} else if !sameAnswer(first, body) {
			t.Fatalf("send %d answered\n%s\nwhere the first answered\n%s", i+1, body, first)
		}
	}
	if got := srv.statsNow().AnswerCache; got.Bytes <= answerEntryOverhead {
		t.Fatalf("one entry charged %d bytes, want its head and more", got.Bytes)
	}
	// Another row cap is another key.
	serveQuery(h, approxRouteSQL, 1000)
	if got := srv.statsNow().AnswerCache; got.Hits != 1 || got.Entries != 1 {
		t.Fatalf("a different max_rows hit the entry: %+v", got)
	}
}

// TestAnswerCacheKeepsOnlyCleanSetAnswers: a full-database answer, a
// degraded one (breaker, row guard, fault), a row-budget trip and an error
// are never admitted, however often they repeat.
func TestAnswerCacheKeepsOnlyCleanSetAnswers(t *testing.T) {
	sys := trainedSystem(t)
	// failFirstScans fails the first scan of each of n requests that make two
	// scans: the full rung's, then the set's substitute.
	failFirstScans := func(n int) {
		var in []faults.Injection
		for i := 0; i < n; i++ {
			in = append(in, faults.Injection{Point: faults.PointEngineScan, Kind: faults.KindError, After: 2 * i, MaxFires: 1})
		}
		faults.Enable(faults.NewSchedule(1, in...))
	}
	for _, c := range []struct {
		name    string
		sql     string
		maxRows int
		setup   func(h http.Handler)
		want    string // a substring of every answer
	}{
		{name: "full", sql: fullRouteSQL, want: `"source":"full"`},
		{name: "rows", sql: approxRouteSQL, maxRows: 2, want: `"degraded_reason":"rows"`},
		{name: "fault", sql: fullRouteSQL, setup: func(http.Handler) { failFirstScans(3) },
			want: `"source":"approximation","degraded":true,"degraded_reason":"fault"`},
		{name: "breaker", sql: fullRouteSQL, setup: func(h http.Handler) {
			failFirstScans(1)
			serveQuery(h, fullRouteSQL, 0) // one full-rung fault opens a one-trip breaker
			faults.Disable()
		}, want: `"degraded_reason":"breaker"`},
		{name: "budget", sql: "SELECT * FROM cast_info a, cast_info b, cast_info c, cast_info d, cast_info e", maxRows: 2, want: `"error":`},
		{name: "error", sql: "SELECT nosuch FROM name WHERE birth_year > 1800", want: `"error":`},
		{name: "parse", sql: "SELECT FROM WHERE", want: `"error":`},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer faults.Disable()
			cfg := Config{}
			if c.name == "breaker" {
				cfg.trips, cfg.cooldown = 1, time.Hour
			}
			srv := newTestServer(t, sys, cfg)
			h := srv.Handler()
			if c.setup != nil {
				c.setup(h)
			}
			for i := 0; i < 3; i++ {
				_, body := serveQuery(h, c.sql, c.maxRows)
				if !bytes.Contains(body, []byte(c.want)) {
					t.Fatalf("send %d answered %s, want %s in it", i+1, body, c.want)
				}
			}
			if got := srv.statsNow().AnswerCache; got.Entries != 0 || got.Hits != 0 {
				t.Fatalf("answer_cache %+v: an answer that is not a clean set answer was kept", got)
			}
		})
	}
}

// TestAnswerCacheStaysWithinBound admits 100 000 distinct statements, each on
// its second sighting: the charged bytes never pass maxAnswerCacheBytes, the
// admission order holds exactly the entries, and the newest statements hit.
func TestAnswerCacheStaysWithinBound(t *testing.T) {
	c := newAnswerCache()
	head := bytes.Repeat([]byte("x"), 300)
	sql := func(i int) string { return fmt.Sprintf("SELECT * FROM title WHERE id = %d", i) }
	const n = 100_000
	for i := 0; i < n; i++ {
		fp := fingerprint(sql(i), 25)
		if c.sighted(fp) {
			t.Fatalf("statement %d: first sighting reported as a repeat", i)
		}
		if !c.sighted(fp) {
			t.Fatalf("statement %d: second sighting not reported", i)
		}
		c.put(&cachedAnswer{fp: fp, sql: sql(i), maxRows: 25, head: head})
		if entries, b := c.stats(); b > maxAnswerCacheBytes || entries != len(c.order) {
			t.Fatalf("after %d admissions: %d bytes in %d entries (%d in order), bound %d",
				i+1, b, entries, len(c.order), maxAnswerCacheBytes)
		}
	}
	entries, _ := c.stats()
	if entries < maxAnswerCacheBytes/(2*(answerEntryOverhead+len(head)+len(sql(n)))) {
		t.Fatalf("only %d entries kept: eviction drops more than it must", entries)
	}
	for i := n - entries; i < n; i++ {
		if c.get(fingerprint(sql(i), 25), sql(i), 25) == nil {
			t.Fatalf("statement %d, among the newest %d, does not hit", i, entries)
		}
	}
	if c.get(fingerprint(sql(0), 25), sql(0), 25) != nil {
		t.Fatal("the oldest statement survived 100 000 admissions")
	}
}

// TestAnswerCacheHitShareOnExploreStream replays a stream shaped like the
// explore_hit bench workload: half the requests draw from a Zipf hot set of
// 400 in-distribution single-table statements paged with LIMIT F, half are
// statements never sent before.
// At least 0.45 of all requests must be hits (0.5 is the ceiling).
func TestAnswerCacheHitShareOnExploreStream(t *testing.T) {
	sys := trainedSystem(t)
	var hot, once []string
	seen := map[string]bool{}
	for _, q := range workload.IMDB(3000, 99) {
		if seen[q.SQL] {
			continue
		}
		seen[q.SQL] = true
		stmt := mustParse(t, q.SQL)
		if p, _ := sys.Estimator().Estimate(stmt); p >= core.EstimatorThreshold && len(stmt.From)+len(stmt.Joins) == 1 && len(hot) < 400 {
			hot = append(hot, q.SQL+" LIMIT 25") // a page of F rows
		} else {
			once = append(once, q.SQL)
		}
	}
	if len(hot) < 400 {
		t.Fatalf("only %d approximation-routed statements for the hot set", len(hot))
	}
	srv := newTestServer(t, sys, Config{DriftObserve: true})
	h := srv.Handler()
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(hot)-1))
	const requests = 30_000
	for i := 0; i < requests; i++ {
		sql := hot[zipf.Uint64()]
		if rng.Intn(2) == 0 {
			sql = fmt.Sprintf("%s LIMIT %d", once[i%len(once)], 1000+i) // never sent before
		}
		if status, body := serveQuery(h, sql, 0); status != http.StatusOK {
			t.Fatalf("request %d: HTTP %d %s", i, status, body)
		}
	}
	st := srv.statsNow().AnswerCache
	if share := float64(st.Hits) / requests; share < 0.45 {
		t.Fatalf("hits on %.3f of requests (%+v), want at least 0.45", share, st)
	}
	t.Logf("answer_cache after %d requests: %+v", requests, st)
}

// TestAnswerCacheFeedsDriftWALAndAudit: a hit still observes drift, journals
// and offers the answer to the auditor. A cache-warm and a cache-cold server
// fed one stream end with equal drift batches, equal served and drift frames
// in their WALs and equal audit offers.
func TestAnswerCacheFeedsDriftWALAndAudit(t *testing.T) {
	stream := []struct {
		sql     string
		maxRows int
	}{
		{approxRouteSQL, 0}, {fullRouteSQL, 0}, {approxRouteSQL, 0},
		{"SELECT kind, COUNT(*) FROM title GROUP BY kind", 0},
		{approxRouteSQL + " LIMIT 3", 0}, {approxRouteSQL, 0},
		{"SELECT COUNT(*), AVG(rating) FROM title WHERE rating > 7", 0},
		{approxRouteSQL, 2}, {"SELECT nosuch FROM title", 0},
		{approxRouteSQL + " LIMIT 3", 0}, {fullRouteSQL, 0}, {"SELECT COUNT(*), AVG(rating) FROM title WHERE rating > 7", 0},
		{"SELECT COUNT(*), AVG(rating) FROM title WHERE rating > 7", 0}, {"SELECT kind, COUNT(*) FROM title GROUP BY kind", 0},
	}
	type outcome struct {
		drifted           int
		served, drift     int
		eligible, sampled int64
		bodies            [][]byte
		hits              int64
	}
	run := func(cold bool) outcome {
		sys := clonedSystem(t)
		sys.SetDrift(0.05, 1<<20) // the set-routed statements drift; nothing triggers
		dir := t.TempDir()
		wlog, _, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(sys, Config{DriftObserve: true, AuditSample: 1, WAL: wlog, noAnswerCache: cold})
		h := srv.Handler()
		var out outcome
		for round := 0; round < 4; round++ {
			for _, q := range stream {
				_, body := serveQuery(h, q.sql, q.maxRows)
				out.bodies = append(out.bodies, body)
			}
		}
		st := srv.statsNow()
		out.drifted, out.hits = st.DriftedQueries, st.AnswerCache.Hits
		out.eligible, out.sampled = st.Quality.Eligible, st.Quality.Sampled
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := wlog.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, rec, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		for _, r := range rec.Tail {
			switch r.Type {
			case wal.TypeServed:
				out.served++
			case wal.TypeDrift:
				out.drift++
			}
		}
		return out
	}
	warm, cold := run(false), run(true)
	if warm.hits == 0 || cold.hits != 0 {
		t.Fatalf("hits: warm %d, cold %d; want some and none", warm.hits, cold.hits)
	}
	if warm.drifted != cold.drifted || warm.served != cold.served || warm.drift != cold.drift ||
		warm.eligible != cold.eligible || warm.sampled != cold.sampled {
		t.Fatalf("warm server: drifted %d, WAL served %d drift %d, audit eligible %d sampled %d;\n"+
			"cold server: drifted %d, WAL served %d drift %d, audit eligible %d sampled %d",
			warm.drifted, warm.served, warm.drift, warm.eligible, warm.sampled,
			cold.drifted, cold.served, cold.drift, cold.eligible, cold.sampled)
	}
	if warm.drifted == 0 || warm.served == 0 || warm.drift == 0 || warm.eligible == 0 {
		t.Fatalf("the stream fed nothing: %+v", warm)
	}
	// observed_error follows the audits finished so far, which run beside
	// the requests: it is left out of the comparison.
	audited := regexp.MustCompile(`,"observed_error":[^,}]*`)
	for i := range warm.bodies {
		if !sameAnswer(audited.ReplaceAll(warm.bodies[i], nil), audited.ReplaceAll(cold.bodies[i], nil)) {
			t.Fatalf("request %d: warm answered\n%s\ncold answered\n%s", i, warm.bodies[i], cold.bodies[i])
		}
	}
}

// TestAnswerCacheHitTrace: a kept trace of a hit is the server span alone,
// carrying the answer_cache_hit event and the attributes a miss's root has.
func TestAnswerCacheHitTrace(t *testing.T) {
	withServerTracing(t, obs.TracingConfig{SampleRate: 1})
	_, base := startServer(t, trainedSystem(t), Config{})
	var tid obs.TraceID
	for i := 0; i < 3; i++ {
		var resp *http.Response
		tid, resp, _ = postTraced(t, base, approxRouteSQL, 0)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("send %d: HTTP %d", i+1, resp.StatusCode)
		}
	}
	rec, ok := obs.KeptTrace(tid.String())
	if !ok {
		t.Fatal("the hit's trace was not kept")
	}
	if !hasEvent(rec.Root, "answer_cache_hit", "", nil) {
		t.Fatalf("hit trace has no answer_cache_hit event: %+v", rec.Root.Events)
	}
	if findSnap(rec.Root, "core/query") != nil {
		t.Fatal("a hit ran the ladder")
	}
	for k, want := range map[string]any{"method": "POST", "generation": int64(1), "sql": approxRouteSQL} {
		if got := rec.Root.Attrs[k]; got != want {
			t.Errorf("root attribute %s = %#v, want %#v", k, got, want)
		}
	}
}
