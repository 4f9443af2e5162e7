package core

import (
	"fmt"
	"sync"
	"testing"

	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
)

// TestDriftTakeObserveRace hammers Observe and Take concurrently under -race
// and proves the snapshot-and-reset is lossless: every drifted statement
// lands in exactly one Take batch — none is dropped by a reset racing a
// concurrent Observe (the bug the old read-Drifted-then-ResetDrift sequence
// allowed), none double-counted. The only statements that reach no batch are
// the ones the detector's bound discarded and counted, when the taker fell
// more than Limit() behind.
func TestDriftTakeObserveRace(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	droppedBefore := driftDropped.Value()
	d := &DriftDetector{Confidence: 0.5, Count: 3}
	stmt := mustParseCore(t, "SELECT * FROM title WHERE rating > 7")

	const writers = 8
	const perWriter = 500

	var writerWg sync.WaitGroup
	writerWg.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				d.ObserveDetail(stmt, 0) // deviation 1.0 >= Confidence: always drifts
			}
		}()
	}
	writersDone := make(chan struct{})
	go func() { writerWg.Wait(); close(writersDone) }()

	taken := 0
	takerDone := make(chan struct{})
	go func() {
		defer close(takerDone)
		for {
			if batch := d.Take(d.Count); batch != nil {
				taken += len(batch)
			}
			select {
			case <-writersDone:
				// Writers finished: one final drain picks up any remainder,
				// including a tail shorter than the trigger threshold.
				if batch := d.Take(1); batch != nil {
					taken += len(batch)
				}
				return
			default:
			}
		}
	}()
	<-takerDone

	dropped := int(driftDropped.Value() - droppedBefore)
	if want := writers * perWriter; taken+dropped != want {
		t.Fatalf("lost or duplicated drifted statements: took %d, bound dropped %d, observed %d", taken, dropped, want)
	}
	if n := d.DriftedCount(); n != 0 {
		t.Fatalf("detector should be drained, still holds %d", n)
	}
}

// TestDriftTakeBelowThreshold checks Take's threshold contract: below min it
// returns nil and clears nothing.
func TestDriftTakeBelowThreshold(t *testing.T) {
	d := &DriftDetector{Confidence: 0.5, Count: 3}
	stmt := mustParseCore(t, "SELECT * FROM title WHERE rating > 7")
	d.ObserveDetail(stmt, 0)
	d.ObserveDetail(stmt, 0)
	if got := d.Take(3); got != nil {
		t.Fatalf("Take below threshold returned %d statements, want nil", len(got))
	}
	if n := d.DriftedCount(); n != 2 {
		t.Fatalf("Take below threshold must not clear: have %d, want 2", n)
	}
	if got := d.Take(0); len(got) != 2 {
		t.Fatalf("Take(0) should drain with min 1: got %d", len(got))
	}
	if n := d.DriftedCount(); n != 0 {
		t.Fatalf("detector should be empty after drain, holds %d", n)
	}
}

// TestDriftBatchBounded: with nothing taking the batch (retraining off) the
// detector keeps the most recent statements within Limit(), counts
// what it discards, and still reports the trigger.
func TestDriftBatchBounded(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	droppedBefore := driftDropped.Value()
	d := &DriftDetector{Confidence: 0.5, Count: 3}
	keep := d.Limit()
	stmts := make([]*sqlparse.Select, 5*keep)
	for i := range stmts {
		stmts[i] = mustParseCore(t, fmt.Sprintf("SELECT * FROM title WHERE rating > %d", i))
		if drifted, triggered := d.ObserveDetail(stmts[i], 0); !drifted || triggered != (i+1 >= d.Count) {
			t.Fatalf("observe %d: drifted %v triggered %v", i, drifted, triggered)
		}
		if n := d.DriftedCount(); n > keep {
			t.Fatalf("after %d observations the batch holds %d, bound %d", i+1, n, keep)
		}
	}
	batch := d.Take(1)
	dropped := int(driftDropped.Value() - droppedBefore)
	if len(batch)+dropped != len(stmts) || len(batch) < keep/2 {
		t.Fatalf("kept %d + core/drift/dropped %d of %d observed (bound %d)", len(batch), dropped, len(stmts), keep)
	}
	for i, st := range batch {
		if want := stmts[len(stmts)-len(batch)+i]; st != want {
			t.Fatalf("batch[%d] = %s, want the most recent statements in order (%s)", i, st, want)
		}
	}
}
