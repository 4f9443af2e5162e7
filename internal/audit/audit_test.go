package audit

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// testDB builds a tiny movie database — the auditor's "full database" —
// without any training, so unit tests run in milliseconds.
func testDB() *table.Database {
	movies := table.New("movies", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "title", Kind: table.KindString},
		{Name: "rating", Kind: table.KindFloat},
		{Name: "genre", Kind: table.KindString},
	})
	rows := []struct {
		id     int64
		title  string
		rating float64
		genre  string
	}{
		{1, "Alpha", 8.1, "drama"},
		{2, "Beta", 6.4, "comedy"},
		{3, "Gamma", 7.7, "drama"},
		{4, "Delta", 5.2, "action"},
		{5, "Epsilon", 9.0, "drama"},
	}
	for _, r := range rows {
		movies.AppendRow(table.Row{
			table.NewInt(r.id), table.NewString(r.title),
			table.NewFloat(r.rating), table.NewString(r.genre),
		})
	}
	db := table.NewDatabase()
	db.Add(movies)
	return db
}

func mustParse(t *testing.T, sql string) *sqlparse.Select {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// newTestAuditor builds an auditor over testDB with frame F and sample rate 1.
func newTestAuditor(t *testing.T, frame int, mut func(*Config)) *Auditor {
	t.Helper()
	cfg := Config{SampleRate: 1}
	if mut != nil {
		mut(&cfg)
	}
	db := testDB()
	a := New(func() (*table.Database, int) { return db, frame }, nil, cfg)
	if a == nil {
		t.Fatal("New returned nil with a positive sample rate")
	}
	t.Cleanup(a.Close)
	return a
}

// waitCompleted polls until the auditor has completed (or failed) n audits.
func waitCompleted(t *testing.T, a *Auditor, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if a.completed.Load()+a.failed.Load() >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("audits did not complete: completed=%d failed=%d want %d",
		a.completed.Load(), a.failed.Load(), n)
}

// TestAuditSPJCoverageError: an approximation-served SPJ answer with 2 of the
// 3 true rows must audit to relative error 1/3, visible through every read
// surface (Stats, ObservedError, Page).
func TestAuditSPJCoverageError(t *testing.T) {
	a := newTestAuditor(t, 25, nil)
	stmt := mustParse(t, "SELECT title FROM movies WHERE rating > 7")
	sv := Served{SQL: stmt.String(), Source: "approximation"}
	if !a.Consider(stmt, sv, 2, nil) {
		t.Fatal("eligible answer was not enqueued at sample rate 1")
	}
	waitCompleted(t, a, 1)

	s := a.Stats()
	if s.Completed != 1 || s.Failed != 0 {
		t.Fatalf("stats: %+v", s)
	}
	want := 1.0 / 3.0
	if math.Abs(s.ErrorMax-want) > 1e-9 {
		t.Errorf("ErrorMax = %v, want %v", s.ErrorMax, want)
	}
	if s.Coverage != 1 {
		t.Errorf("coverage = %v, want 1 (1 eligible, 1 completed)", s.Coverage)
	}

	oe, ok := a.ObservedError(sv.SQL)
	if !ok {
		t.Fatal("ObservedError has no evidence after a completed audit")
	}
	// p95 of a single observation must sit in the observation's bucket; the
	// histogram clamps interpolation to the observed extrema.
	if math.Abs(oe-want) > 1e-9 {
		t.Errorf("ObservedError = %v, want %v", oe, want)
	}

	page := a.Page(nil)
	if len(page.Shapes) != 1 {
		t.Fatalf("page shapes = %d, want 1", len(page.Shapes))
	}
	sh := page.Shapes[0]
	if sh.Count != 1 || math.Abs(sh.Max-want) > 1e-9 {
		t.Errorf("shape report: %+v", sh)
	}
	if sh.WorstSQL != sv.SQL {
		t.Errorf("worst SQL %q, want %q", sh.WorstSQL, sv.SQL)
	}
}

// TestAuditLimitedStatement: the ground truth of a LIMIT statement is a count
// too (the frame-capped min of the matching rows and the LIMIT), so a page
// that was served in full audits to 0 and one that came up short to its share.
func TestAuditLimitedStatement(t *testing.T) {
	a := newTestAuditor(t, 25, nil)
	stmt := mustParse(t, "SELECT title FROM movies WHERE rating > 7 LIMIT 2") // 3 rows match
	a.Consider(stmt, Served{SQL: stmt.String(), Source: "approximation"}, 2, nil)
	waitCompleted(t, a, 1)
	if got := a.Stats().ErrorMax; got != 0 {
		t.Errorf("full page audited to error %v, want 0", got)
	}
	a.Consider(stmt, Served{SQL: stmt.String(), Source: "approximation"}, 1, nil)
	waitCompleted(t, a, 2)
	if got := a.Stats().ErrorMax; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("half page audited to error %v, want 0.5", got)
	}
}

// TestAuditExactAnswerZeroError: serving all true rows audits to error 0 —
// and the zero still shows up as evidence (ObservedError ok=true).
func TestAuditExactAnswerZeroError(t *testing.T) {
	a := newTestAuditor(t, 25, nil)
	stmt := mustParse(t, "SELECT title FROM movies WHERE rating > 7")
	sv := Served{SQL: stmt.String(), Source: "approximation"}
	a.Consider(stmt, sv, 3, nil)
	waitCompleted(t, a, 1)
	oe, ok := a.ObservedError(sv.SQL)
	if !ok || oe != 0 {
		t.Errorf("ObservedError = (%v, %v), want (0, true)", oe, ok)
	}
}

// TestAuditAggregateGroupError: a grouped aggregate served with one wrong
// group value and one missing group must audit to the mean per-group
// relative error of Equation 2.
func TestAuditAggregateGroupError(t *testing.T) {
	a := newTestAuditor(t, 25, nil)
	stmt := mustParse(t, "SELECT genre, COUNT(*) FROM movies GROUP BY genre")
	// Truth: drama 3, comedy 1, action 1. Served: drama 2 (error 1/3),
	// comedy 1 (exact), action missing (error 1) → mean 4/9.
	served := &table.RowSet{Schema: table.Schema{
		{Name: "genre", Kind: table.KindString},
		{Name: "count", Kind: table.KindInt},
	}, Rows: []table.Row{
		{table.NewString("drama"), table.NewInt(2)},
		{table.NewString("comedy"), table.NewInt(1)},
	}}
	sv := Served{SQL: stmt.String(), Source: "approximation"}
	a.Consider(stmt, sv, served.NumRows(), served)
	waitCompleted(t, a, 1)

	want := 4.0 / 9.0
	if got := a.Stats().ErrorMax; math.Abs(got-want) > 1e-9 {
		t.Errorf("aggregate relative error = %v, want %v", got, want)
	}
}

// TestAuditEligibility: full-database non-degraded answers are exact by
// construction and never audited; degraded full answers are.
func TestAuditEligibility(t *testing.T) {
	a := newTestAuditor(t, 25, nil)
	stmt := mustParse(t, "SELECT title FROM movies WHERE rating > 7")
	if a.Consider(stmt, Served{SQL: stmt.String(), Source: "full"}, 3, nil) {
		t.Error("exact full-database answer was enqueued for audit")
	}
	if a.eligible.Load() != 0 {
		t.Error("exact answer counted as eligible")
	}
	if !a.Consider(stmt, Served{SQL: stmt.String(), Source: "full", Degraded: true, Reason: "rows"}, 1, nil) {
		t.Error("degraded full answer was not enqueued")
	}
}

// TestAuditSampleRateZeroDisables: New must return the nil (disabled)
// auditor, whose every method is a safe no-op.
func TestAuditSampleRateZeroDisables(t *testing.T) {
	db := testDB()
	a := New(func() (*table.Database, int) { return db, 25 }, nil, Config{SampleRate: 0})
	if a != nil {
		t.Fatal("New with SampleRate 0 should return nil")
	}
	stmt := mustParse(t, "SELECT title FROM movies WHERE rating > 7")
	if a.Consider(stmt, Served{Source: "approximation"}, 1, nil) {
		t.Error("nil auditor enqueued an audit")
	}
	if _, ok := a.ObservedError("x"); ok {
		t.Error("nil auditor has observed error")
	}
	if s := a.Stats(); s.Enabled {
		t.Errorf("nil auditor stats: %+v", s)
	}
	a.Close() // must not panic
}

// TestAuditQueueBoundsAndDrop: with the worker pool wedged behind a denying
// gate, offers beyond queueDepth are dropped (counted), never blocked on.
func TestAuditQueueBoundsAndDrop(t *testing.T) {
	var allow atomic.Bool
	db := testDB()
	a := New(
		func() (*table.Database, int) { return db, 25 },
		func() bool { return allow.Load() },
		Config{SampleRate: 1},
	)
	t.Cleanup(a.Close)
	stmt := mustParse(t, "SELECT title FROM movies WHERE rating > 7")
	sv := Served{SQL: stmt.String(), Source: "approximation"}

	// The worker pulls one job and parks at the gate; queueDepth more fill
	// the queue. Everything beyond that must drop immediately.
	deadline := time.Now().Add(5 * time.Second)
	for a.dropped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no drops despite a full queue")
		}
		done := make(chan bool, 1)
		go func() { done <- a.Consider(stmt, sv, 1, nil) }()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("Consider blocked on a full audit queue")
		}
	}
	for a.deferrals.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gate denial recorded no deferrals")
		}
		time.Sleep(time.Millisecond)
	}

	// Open the gate: the queued audits complete, the dropped ones stay lost.
	allow.Store(true)
	waitCompleted(t, a, a.sampled.Load()-a.dropped.Load())
	if got := a.completed.Load() + a.dropped.Load(); got != a.sampled.Load() {
		t.Errorf("completed %d + dropped %d != sampled %d",
			a.completed.Load(), a.dropped.Load(), a.sampled.Load())
	}
}

// TestAuditCloseDrainsWorkers: Close must stop every worker — including ones
// parked in gate backoff — and leave no goroutines behind.
func TestAuditCloseDrainsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	db := testDB()
	a := New(
		func() (*table.Database, int) { return db, 25 },
		func() bool { return false }, // gate never opens
		Config{SampleRate: 1, workers: 4},
	)
	stmt := mustParse(t, "SELECT title FROM movies WHERE rating > 7")
	sv := Served{SQL: stmt.String(), Source: "approximation"}
	for i := 0; i < 8; i++ {
		a.Consider(stmt, sv, 1, nil)
	}
	done := make(chan struct{})
	go func() { a.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain the worker pool")
	}
	if a.Consider(stmt, sv, 1, nil) {
		t.Error("closed auditor accepted an audit")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines after Close: %d, want ≤ %d", after, before)
	}
}

// TestAuditMapsBounded: the shape map and the SQL index hold at most their
// caps however many distinct shapes and statements are audited; the oldest
// entry goes first, and an evicted statement has no evidence left.
func TestAuditMapsBounded(t *testing.T) {
	a := newTestAuditor(t, 25, nil)
	name := func(kind string, i int) string { return fmt.Sprintf("%s-%d", kind, i) }
	for i := 0; i <= maxSQLIndex; i++ {
		sv := Served{SQL: name("sql", i), Source: "approximation"}
		a.record(job{served: sv}, name("shape", i), 0.25)
	}
	a.mu.Lock()
	shapes, order, sqls, sqlOrder := len(a.shapes), len(a.order), len(a.sqlShape), len(a.sqlOrder)
	_, oldestShape := a.shapes[name("shape", maxSQLIndex-maxShapes)]
	_, newestShape := a.shapes[name("shape", maxSQLIndex)]
	a.mu.Unlock()
	if shapes != maxShapes || order != maxShapes {
		t.Errorf("shape map holds %d entries (%d ordered), want the cap %d", shapes, order, maxShapes)
	}
	if sqls != maxSQLIndex || sqlOrder != maxSQLIndex {
		t.Errorf("SQL index holds %d entries (%d ordered), want the cap %d", sqls, sqlOrder, maxSQLIndex)
	}
	if oldestShape || !newestShape {
		t.Errorf("shape eviction is not oldest-first: oldest kept=%v newest kept=%v", oldestShape, newestShape)
	}
	if _, ok := a.ObservedError(name("sql", 0)); ok {
		t.Error("the evicted statement still reports evidence")
	}
	if p95, ok := a.ObservedError(name("sql", maxSQLIndex)); !ok || p95 <= 0 {
		t.Errorf("the newest statement reports (%v, %v), want its evidence", p95, ok)
	}
	if p := a.Page(nil); len(p.Shapes) != maxShapes {
		t.Errorf("/qualityz lists %d shapes, want %d", len(p.Shapes), maxShapes)
	}
}

// TestAuditEvidencePerGeneration: SetGeneration retires the per-shape
// tables — shapes, worst offenders, the SQL index — while the lifetime
// counters keep counting; a late verdict on the retired generation's answer
// is not folded into the new generation's tables, the new generation's own
// verdicts are.
func TestAuditEvidencePerGeneration(t *testing.T) {
	a := newTestAuditor(t, 25, nil)
	stmt := mustParse(t, "SELECT title FROM movies WHERE rating > 7")
	old := Served{SQL: stmt.String(), Source: "approximation", Generation: 1}
	a.SetGeneration(1)
	a.Consider(stmt, old, 1, nil) // error 2/3
	waitCompleted(t, a, 1)
	if p95, n, ok := a.WorstShapeP95(); !ok || n != 1 || p95 == 0 {
		t.Fatalf("generation 1 evidence = (%v, %d, %v), want one verdict", p95, n, ok)
	}

	a.SetGeneration(2)
	if _, _, ok := a.WorstShapeP95(); ok {
		t.Error("the retired generation's shapes still back WorstShapeP95")
	}
	if _, ok := a.ObservedError(old.SQL); ok {
		t.Error("the retired generation's statement still reports observed error")
	}
	if p := a.Page(nil); len(p.Shapes) != 0 || p.Audit.Completed != 1 {
		t.Errorf("after the swap /qualityz lists %d shapes over %d completed, want 0 over 1", len(p.Shapes), p.Audit.Completed)
	}

	a.Consider(stmt, old, 1, nil) // completes after the swap
	waitCompleted(t, a, 2)
	if _, _, ok := a.WorstShapeP95(); ok {
		t.Error("a late verdict on generation 1 reached generation 2's tables")
	}
	if got := a.Stats().Completed; got != 2 {
		t.Errorf("lifetime completed = %d, want 2 (the late verdict counts)", got)
	}

	exact := old
	exact.Generation = 2
	a.Consider(stmt, exact, 3, nil)
	waitCompleted(t, a, 3)
	if p95, n, ok := a.WorstShapeP95(); !ok || n != 1 || p95 != 0 {
		t.Errorf("generation 2 evidence = (%v, %d, %v), want its one exact verdict", p95, n, ok)
	}
}

// TestAuditWorstOffenderOrdering: /qualityz shapes must sort worst p95
// first, with per-shape worst offenders retained.
func TestAuditWorstOffenderOrdering(t *testing.T) {
	a := newTestAuditor(t, 25, nil)
	// Shape A: scan with filter, error 2/3. Shape B: aggregate, error 0.
	bad := mustParse(t, "SELECT title FROM movies WHERE rating > 7")
	a.Consider(bad, Served{SQL: bad.String(), Source: "approximation"}, 1, nil)
	good := mustParse(t, "SELECT COUNT(*) FROM movies")
	exact := &table.RowSet{Schema: table.Schema{{Name: "count", Kind: table.KindInt}}, Rows: []table.Row{{table.NewInt(5)}}}
	a.Consider(good, Served{SQL: good.String(), Source: "approximation"}, exact.NumRows(), exact)
	waitCompleted(t, a, 2)

	page := a.Page(&DriftStatus{Enabled: true, Drifted: 3, Threshold: 10})
	if len(page.Shapes) != 2 {
		t.Fatalf("shapes = %d, want 2", len(page.Shapes))
	}
	if page.Shapes[0].P95 < page.Shapes[1].P95 {
		t.Errorf("shapes not sorted worst-first: %v then %v", page.Shapes[0].P95, page.Shapes[1].P95)
	}
	if page.Shapes[0].WorstSQL != bad.String() {
		t.Errorf("worst offender SQL %q, want %q", page.Shapes[0].WorstSQL, bad.String())
	}
	if page.Drift == nil || page.Drift.Drifted != 3 {
		t.Errorf("drift block not carried through: %+v", page.Drift)
	}
}

// TestAuditDisabledZeroAlloc is the zero-overhead guard: a disabled (nil)
// auditor must add zero allocations to the serving hot path — the same
// contract as TestDisabledTracingZeroAlloc in internal/obs.
func TestAuditDisabledZeroAlloc(t *testing.T) {
	var a *Auditor
	stmt := mustParse(t, "SELECT title FROM movies WHERE rating > 7")
	allocs := testing.AllocsPerRun(1000, func() {
		a.Consider(stmt, Served{Source: "approximation", TraceID: obs.TraceID{}}, 2, nil)
		a.ObservedError("SELECT title FROM movies WHERE rating > 7")
	})
	if allocs != 0 {
		t.Errorf("disabled auditor allocates %.1f per op on the hot path, want 0", allocs)
	}
}

// BenchmarkAuditDisabledOverhead records the disabled-path cost in the bench
// history (expected: ~1ns and 0 allocs/op).
func BenchmarkAuditDisabledOverhead(b *testing.B) {
	var a *Auditor
	stmt, err := sqlparse.Parse("SELECT title FROM movies WHERE rating > 7")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Consider(stmt, Served{Source: "approximation"}, 2, nil)
	}
}
