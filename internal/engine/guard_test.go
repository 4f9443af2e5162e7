package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"asqprl/internal/datagen"
	"asqprl/internal/faults"
	"asqprl/internal/sqlparse"
)

func mustParse(t *testing.T, sql string) *sqlparse.Select {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestDeadlineExceeded: a query issued with an (already expired) 1ms deadline
// against the synthetic IMDB dataset returns ErrDeadline — not a hang, not a
// panic, not a silent result.
func TestDeadlineExceeded(t *testing.T) {
	db := datagen.IMDB(0.05, 1)
	stmt := mustParse(t, "SELECT * FROM title t JOIN cast_info c ON t.id = c.title_id WHERE t.rating > 1")

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond) // guarantee expiry regardless of machine speed

	res, err := ExecuteWithContext(ctx, db, stmt, Options{TrackLineage: true})
	if err == nil {
		t.Fatalf("expected deadline error, got %d rows", res.Table.NumRows())
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if GuardKind(err) != "deadline" {
		t.Fatalf("GuardKind = %q, want deadline", GuardKind(err))
	}
}

// TestCancellationMidScan: canceling the context during execution interrupts
// the scan loop via the cooperative per-row checks.
func TestCancellationMidScan(t *testing.T) {
	db := datagen.IMDB(0.2, 1)
	stmt := mustParse(t, "SELECT * FROM title t JOIN cast_info c ON t.id = c.title_id")

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-canceled: the first poll must observe it
	_, err := ExecuteWithContext(ctx, db, stmt, Options{TrackLineage: true})
	if !errors.Is(err, ErrCanceled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation error, got %v", err)
	}
	if GuardKind(err) != "canceled" {
		t.Fatalf("GuardKind = %q, want canceled", GuardKind(err))
	}
}

// TestMaxOutputRows: tripping the output budget returns ErrRowBudget together
// with the partial rows produced before the trip.
func TestMaxOutputRows(t *testing.T) {
	db := datagen.IMDB(0.05, 1)
	stmt := mustParse(t, "SELECT * FROM title WHERE rating > 0")

	res, err := ExecuteWithContext(context.Background(), db, stmt, Options{MaxOutputRows: 7})
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("want ErrRowBudget, got %v", err)
	}
	if GuardKind(err) != "rows" {
		t.Fatalf("GuardKind = %q, want rows", GuardKind(err))
	}
	if res == nil || res.Table == nil {
		t.Fatal("row-budget trip should carry a partial result")
	}
	if res.Table.NumRows() != 7 {
		t.Fatalf("partial result has %d rows, want 7", res.Table.NumRows())
	}
}

// TestMaxOutputRowsUnderLimit: a budget larger than the result is inert.
func TestMaxOutputRowsUnderLimit(t *testing.T) {
	db := datagen.IMDB(0.02, 1)
	stmt := mustParse(t, "SELECT * FROM title WHERE rating > 9.5")
	want, err := Execute(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteWithContext(context.Background(), db, stmt, Options{MaxOutputRows: 1 << 30, TrackLineage: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != want.Table.NumRows() {
		t.Fatalf("guarded result has %d rows, unguarded %d", res.Table.NumRows(), want.Table.NumRows())
	}
}

// TestIntermediateLimitIsRowBudget: the join-intermediate cap reports through
// the same typed error as the output budget.
func TestIntermediateLimitIsRowBudget(t *testing.T) {
	db := datagen.IMDB(0.05, 1)
	stmt := mustParse(t, "SELECT * FROM title t, cast_info c")
	_, err := ExecuteWith(db, stmt, Options{MaxIntermediateRows: 100})
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("want ErrRowBudget for intermediate cap, got %v", err)
	}
}

// TestScanFaultInjection: an error armed at the scan point propagates as a
// typed error instead of a wrong result.
func TestScanFaultInjection(t *testing.T) {
	db := datagen.IMDB(0.02, 1)
	stmt := mustParse(t, "SELECT * FROM title WHERE rating > 5")

	faults.Enable(faults.NewSchedule(1, faults.Injection{Point: faults.PointEngineScan, Kind: faults.KindError}))
	defer faults.Disable()
	_, err := Execute(db, stmt)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}

	faults.Disable()
	if _, err := Execute(db, stmt); err != nil {
		t.Fatalf("after disabling faults execution must succeed, got %v", err)
	}
}

// TestGuardKindUnrelated: non-guard errors map to the empty kind.
func TestGuardKindUnrelated(t *testing.T) {
	if k := GuardKind(errors.New("other")); k != "" {
		t.Fatalf("GuardKind(other) = %q, want empty", k)
	}
	if k := GuardKind(nil); k != "" {
		t.Fatalf("GuardKind(nil) = %q, want empty", k)
	}
}

// TestNilGuardTick: the nil guard is inert (the unguarded fast path).
func TestNilGuardTick(t *testing.T) {
	var g *guard
	for i := 0; i < 3*guardInterval; i++ {
		if err := g.tick(1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.out(1); err != nil {
		t.Fatal(err)
	}
	if err := g.poll(); err != nil {
		t.Fatal(err)
	}
}
