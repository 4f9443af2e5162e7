package server

import (
	"context"
	"fmt"
	"testing"
	"time"

	"asqprl/internal/faults"
	"asqprl/internal/obs"
	"asqprl/internal/retrain"
	"asqprl/internal/wal"
)

// driftedSQL deviates maximally from the training workload when logged with
// confidence 0; replay must restore it into the detector's drifted set.
const driftedSQL = "SELECT * FROM name WHERE birth_year > 1950"

// TestServerWALRecovery is the end-to-end kill-and-restart proof at the
// server layer: a first server life serves traffic into a WAL and dies
// without closing it; a second life replays the tail, holds /readyz down
// until the replay lands, restores the drift detector and the retrain
// backoff, and reports the whole recovery in /stats.
func TestServerWALRecovery(t *testing.T) {
	dir := t.TempDir()

	// --- First life: serve with durability on. ---
	sys1, err := trainedSystem(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	wlog1, rec1, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec1.Stats.FramesReplayed != 0 {
		t.Fatalf("fresh directory replayed %d frames", rec1.Stats.FramesReplayed)
	}
	_, base1 := startServer(t, sys1, Config{WAL: wlog1})
	for i := 0; i < 3; i++ {
		if status, _ := postQuery(t, base1, approxRouteSQL, 0, 0); status != 200 {
			t.Fatalf("query status %d", status)
		}
	}
	// The request path appends served frames asynchronously. Drift evidence
	// and a mid-flight retrain failure are logged durably here (the durable
	// append also group-syncs the buffered served frames, so everything below
	// is on disk when it returns).
	for i := 0; i < 3; i++ {
		if err := wlog1.Append(wal.Record{Type: wal.TypeDrift, SQL: driftedSQL, Confidence: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wlog1.Append(wal.Record{Type: wal.TypeRetrain, Event: "failed", Attempt: 2}); err != nil {
		t.Fatal(err)
	}
	if st := wlog1.Stats(); st.Appended < 7 {
		t.Fatalf("first life appended %d frames, want >= 7 (3 served + 3 drift + 1 retrain)", st.Appended)
	}
	// Crash: the process dies without closing the log. (The test must not
	// Close — that would fsync the tail and defeat the point.)

	// --- Second life: recover. ---
	wlog2, rec2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog2.Close()
	if rec2.Stats.FramesReplayed < 7 {
		t.Fatalf("replayed %d frames, want >= 7 (stats %+v)", rec2.Stats.FramesReplayed, rec2.Stats)
	}

	sys2, err := trainedSystem(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	// The restored backoff (two attempts at the default 5 s: 10 s) outlasts
	// the test, so the replayed drift stays in the detector to be counted.
	cfg := Config{WAL: wlog2, Retrain: retrain.Config{Enabled: true}}
	srv, base2 := startServer(t, sys2, cfg)
	srv.BeginRecovery()

	// Readiness is gated on recovery: traffic must not land on a server whose
	// drift state is still mid-replay.
	var ready struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, base2+"/readyz", &ready); code != 503 || ready.Status != "recovering" {
		t.Fatalf("/readyz during recovery = %d %+v, want 503 recovering", code, ready)
	}

	info := srv.Recover(sys2, rec2)

	if code := getJSON(t, base2+"/readyz", &ready); code != 200 {
		t.Fatalf("/readyz after recovery = %d %+v", code, ready)
	}
	if info.ServedSeen < 3 {
		t.Errorf("ServedSeen = %d, want >= 3", info.ServedSeen)
	}
	if info.DriftRestored != 3 {
		t.Errorf("DriftRestored = %d, want 3", info.DriftRestored)
	}
	if info.RetrainAttemptsRestored != 2 {
		t.Errorf("RetrainAttemptsRestored = %d, want 2", info.RetrainAttemptsRestored)
	}
	if got := sys2.Drift().DriftedCount(); got != 3 {
		t.Errorf("drift detector holds %d drifted observations after replay, want 3", got)
	}

	// The recovery report and the live WAL are surfaced in /stats.
	var stats Stats
	if code := getJSON(t, base2+"/stats", &stats); code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	if stats.WAL == nil || stats.WAL.Dir != dir {
		t.Fatalf("/stats wal block = %+v, want dir %s", stats.WAL, dir)
	}
	if stats.Recovery == nil {
		t.Fatal("/stats recovery block missing")
	}
	if stats.Recovery.FramesReplayed != rec2.Stats.FramesReplayed ||
		stats.Recovery.DriftRestored != 3 {
		t.Fatalf("/stats recovery block = %+v", stats.Recovery)
	}

	// The recovered server keeps logging: new traffic lands in the new log.
	before := wlog2.Stats().Appended
	if status, _ := postQuery(t, base2, fullRouteSQL, 0, 0); status != 200 {
		t.Fatalf("post-recovery query status %d", status)
	}
	deadline := time.Now().Add(2 * time.Second)
	for wlog2.Stats().Appended == before {
		if time.Now().After(deadline) {
			t.Fatal("post-recovery query was not appended to the WAL")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerWALRecoveryConsumedBatch checks the replay semantics around
// retrain lifecycle events: drift evidence logged before a swapped event was
// consumed by that retrain and must NOT be re-observed; evidence after it
// must be.
func TestServerWALRecoveryConsumedBatch(t *testing.T) {
	dir := t.TempDir()
	wlog1, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRec := func(r wal.Record) {
		t.Helper()
		if err := wlog1.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(wal.Record{Type: wal.TypeDrift, SQL: driftedSQL, Confidence: 0})
	appendRec(wal.Record{Type: wal.TypeDrift, SQL: driftedSQL, Confidence: 0})
	appendRec(wal.Record{Type: wal.TypeRetrain, Event: "swapped", Generation: 2})
	appendRec(wal.Record{Type: wal.TypeDrift, SQL: driftedSQL, Confidence: 0})
	// Crash without Close.

	wlog2, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog2.Close()

	sys, err := trainedSystem(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := startServer(t, sys, Config{WAL: wlog2})
	srv.BeginRecovery()
	info := srv.Recover(sys, rec)
	if info.DriftRestored != 1 {
		t.Errorf("DriftRestored = %d, want 1 (pre-swap evidence was consumed)", info.DriftRestored)
	}
	if got := sys.Drift().DriftedCount(); got != 1 {
		t.Errorf("drift detector holds %d observations, want 1", got)
	}
}

// TestRecoveryDriftBounded: a tail holding more drift evidence than the
// detector keeps (a long life with retraining off) restores the newest
// Limit() observations, not all of them.
func TestRecoveryDriftBounded(t *testing.T) {
	sys, err := trainedSystem(t).Clone()
	if err != nil {
		t.Fatal(err)
	}
	limit := sys.Drift().Limit()
	var rec wal.Recovery
	for i := 0; i < limit+300; i++ {
		rec.Tail = append(rec.Tail, wal.Record{Type: wal.TypeDrift, Confidence: 0,
			SQL: fmt.Sprintf("SELECT * FROM name WHERE birth_year > %d", i)})
	}
	srv := New(sys, Config{})
	defer srv.Shutdown(context.Background())
	info := srv.Recover(sys, rec)
	if info.DriftRestored != limit || sys.Drift().DriftedCount() != limit {
		t.Fatalf("restored %d, detector holds %d; want both %d", info.DriftRestored, sys.Drift().DriftedCount(), limit)
	}
	if got, want := sys.Drift().Take(1)[0].String(), "SELECT * FROM name WHERE birth_year > 300"; got != want {
		t.Errorf("oldest restored observation %q, want %q", got, want)
	}
}

// TestJournalFailureCountedNotServed: the journal is best-effort beside an
// answer already computed. With every append failing, queries still answer
// 200, and server/wal_append_errors — the only place the loss shows — counts
// one per answer that went unjournalled.
func TestJournalFailureCountedNotServed(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	wlog, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	_, base := startServer(t, trainedSystem(t), Config{WAL: wlog})
	faults.Enable(faults.NewSchedule(1, faults.Injection{Point: faults.PointWALAppend, Kind: faults.KindError}))
	defer faults.Disable()

	before := walAppendErrors.Value()
	const n = 3
	for i := 0; i < n; i++ {
		if status, resp := postQuery(t, base, approxRouteSQL, 0, 0); status != 200 {
			t.Fatalf("query %d with the journal failing: HTTP %d (%s)", i, status, resp.Error)
		}
	}
	if got := walAppendErrors.Value() - before; got != n {
		t.Errorf("server/wal_append_errors advanced by %d over %d unjournalled answers", got, n)
	}
}

// TestRecoveryWakesRetrain: a replayed tail whose drift evidence meets the
// threshold starts a retrain attempt with no new query and no Force — at once
// when the tail holds no failed attempt, once the restored backoff expires
// when it does.
func TestRecoveryWakesRetrain(t *testing.T) {
	for _, tc := range []struct {
		name     string
		attempts int
	}{{"fresh batch", 0}, {"after a failed attempt", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := clonedSystem(t)
			var rec wal.Recovery
			for i := 0; i < sys.Drift().Count; i++ {
				rec.Tail = append(rec.Tail, wal.Record{Type: wal.TypeDrift, SQL: driftedSQL, Confidence: 0})
			}
			if tc.attempts > 0 {
				rec.Tail = append(rec.Tail, wal.Record{Type: wal.TypeRetrain, Event: "failed", Attempt: tc.attempts})
			}
			cfg := fastRetrain()
			cfg.Backoff = 300 * time.Millisecond
			srv := New(nil, Config{Retrain: cfg}) // as asqp-serve: no system until recovery publishes one
			defer srv.Shutdown(context.Background())
			srv.BeginRecovery()
			srv.Recover(sys, rec)
			if tc.attempts > 0 {
				if st := srv.ret.Status(); st.Attempts != 0 || st.State != "backoff" {
					t.Fatalf("restored backoff not held: %+v", st)
				}
			}
			waitRetrain(t, srv, 10*time.Second, func(st retrain.Status) bool { return st.Attempts >= 1 })
		})
	}
}
