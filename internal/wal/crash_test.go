package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asqprl/internal/faults"
	"asqprl/internal/obs"
)

// TestCrashMatrix is the durability proof surface: for every kill point at a
// write/fsync/rotate/checkpoint boundary, and across a spread of seeds, it
//
//  1. drives a mixed workload (durable appends, async appends, periodic
//     checkpoints) with a seeded fault injected at the kill point,
//  2. simulates process death by abandoning the log without Close and then
//     tearing a seeded number of bytes off the tail of the last segment —
//     only bytes past the last acknowledged frame, because fsync already
//     pinned everything acknowledged to disk,
//  3. restarts (re-Opens) and asserts the recovery invariant: every frame
//     acknowledged after the last durable checkpoint is replayed, in order,
//     with nothing invented — zero acknowledged-then-lost frames.
//
// The snapshot-swap kill point (core/snapshot/rename) is covered by the
// core package's TestSaveFileKilledBeforeRename and the server recovery
// tests, where a real snapshot exists to swap.
func TestCrashMatrix(t *testing.T) {
	points := []string{
		faults.PointWALAppend,
		faults.PointWALSync,
		faults.PointWALRotate,
		faults.PointWALCheckpoint,
	}
	for _, point := range points {
		for seed := int64(1); seed <= 6; seed++ {
			name := fmt.Sprintf("%s/seed=%d", strings.ReplaceAll(point, "/", "_"), seed)
			t.Run(name, func(t *testing.T) {
				runCrashCase(t, point, seed)
			})
		}
	}
}

func runCrashCase(t *testing.T, point string, seed int64) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))

	// One error injection, firing once somewhere in the run. KindError at a
	// write boundary models the process dying there: the operation reports
	// failure (or the log goes sticky-failed), and nothing after it is
	// acknowledged.
	sched := faults.NewSchedule(seed, faults.Injection{
		Point:    point,
		Kind:     faults.KindError,
		After:    rng.Intn(30),
		MaxFires: 1,
	})
	faults.Enable(sched)
	defer faults.Disable()

	l, _ := openT(t, dir, Options{segmentBytes: 300})
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	failedBefore := obs.Default().Counter("wal/append_errors").Value()

	// acked tracks frames acknowledged durable since the last durable
	// checkpoint — exactly the set recovery must replay.
	var acked []string
	ckptDurable := func(err error) bool {
		// The wal/checkpoint kill point fires after the checkpoint record's
		// fsync, so an error naming it means the checkpoint IS durable and
		// only the pruning was lost. Any other failure (rotate, fsync, write)
		// happened before durability.
		return err == nil || strings.Contains(err.Error(), faults.PointWALCheckpoint)
	}
	for i := 0; i < 60; i++ {
		switch {
		case i%15 == 14:
			err := l.Checkpoint(int64(i))
			if ckptDurable(err) {
				acked = acked[:0]
			}
		case i%7 == 3:
			// Async appends are never acknowledged; losing them is allowed.
			_ = l.AppendAsync(Record{Type: TypeServed, SQL: fmt.Sprintf("async-%d", i)})
		default:
			rec := Record{Type: TypeServed, SQL: fmt.Sprintf("acked-%d", i)}
			if err := l.Append(rec); err == nil {
				acked = append(acked, rec.SQL)
			} else if point == faults.PointWALSync || point == faults.PointWALRotate {
				// fsyncgate: a failed fsync/rotate is sticky-fatal. Every
				// later durable append must also fail — an ack after a lost
				// fsync would be a lie.
				for j := 0; j < 3; j++ {
					if err2 := l.Append(servedRec(1000 + j)); err2 == nil {
						t.Fatalf("append acknowledged after sticky %s failure", point)
					}
				}
				// …and the failure that made the log read-only is counted
				// once, not once per refused append.
				if got := obs.Default().Counter("wal/append_errors").Value() - failedBefore; got != 1 {
					t.Fatalf("wal/append_errors advanced by %d after a sticky %s failure, want 1", got, point)
				}
			}
		}
	}

	// Simulated SIGKILL: abandon the log. No Close, no flush — whatever the
	// group syncer had not yet written stays in the dead process's memory.
	// Then tear a seeded number of tail bytes off the last segment,
	// restricted to bytes past the last acknowledged frame (fsync pinned the
	// acknowledged prefix; only the unsynced suffix can tear).
	tearTail(t, dir, acked, rng)
	faults.Disable()

	l2, rec := openT(t, dir, Options{segmentBytes: 300})
	defer l2.Close()

	assertSubsequence(t, acked, tailSQLs(rec.Tail))
	for _, r := range rec.Tail {
		if r.Type == TypeCheckpoint {
			t.Fatalf("checkpoint record leaked into the replay tail: %+v", r)
		}
	}
	// Recovery repaired the disk: a second restart must be clean and agree.
	l2.Close()
	l3, rec2 := openT(t, dir, Options{segmentBytes: 300})
	defer l3.Close()
	if rec2.Stats.TruncatedBytes != 0 {
		t.Fatalf("second open still truncating: %+v", rec2.Stats)
	}
	a, b := tailSQLs(rec.Tail), tailSQLs(rec2.Tail)
	if len(a) != len(b) {
		t.Fatalf("recovery not idempotent: %d then %d records", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recovery not idempotent at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// tearTail truncates the last segment at a seeded offset no earlier than the
// end of the last acknowledged frame.
func tearTail(t *testing.T, dir string, acked []string, rng *rand.Rand) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		return
	}
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ackedSet := make(map[string]bool, len(acked))
	for _, s := range acked {
		ackedSet[s] = true
	}
	floor := 0 // truncation may not cut below this offset
	off := 0
	for off < len(data) {
		rec, _, n, ok := decodeFrameAt(data[off:])
		if !ok {
			break
		}
		off += n
		// Checkpoint frames are fsynced before Checkpoint returns, and acked
		// frames are fsynced by definition; both are pinned.
		if rec.Type == TypeCheckpoint || ackedSet[rec.SQL] {
			floor = off
		}
	}
	if floor >= len(data) {
		return
	}
	cut := floor + rng.Intn(len(data)-floor+1)
	if cut >= len(data) {
		return
	}
	if err := os.Truncate(path, int64(cut)); err != nil {
		t.Fatal(err)
	}
}

// assertSubsequence checks want appears within got in order (got may hold
// extra unacknowledged-but-surviving frames between them).
func assertSubsequence(t *testing.T, want, got []string) {
	t.Helper()
	j := 0
	for _, g := range got {
		if j < len(want) && g == want[j] {
			j++
		}
	}
	if j != len(want) {
		t.Fatalf("acknowledged frame lost: replayed %d of %d acked frames\nacked: %v\nreplayed: %v",
			j, len(want), want, got)
	}
}
