package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"asqprl/internal/obs"
)

// openT opens a log in dir, failing the test on error.
func openT(t *testing.T, dir string, opts Options) (*Log, Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// servedRec builds a served record with a recognizable SQL payload.
func servedRec(i int) Record {
	return Record{Type: TypeServed, SQL: fmt.Sprintf("SELECT %d FROM t", i), Source: "approximation"}
}

// tailSQLs extracts the SQL of every non-checkpoint record in a tail.
func tailSQLs(tail []Record) []string {
	var out []string
	for _, r := range tail {
		out = append(out, r.SQL)
	}
	return out
}

// TestAppendRecoverRoundtrip: durably appended records come back in order
// from a clean re-open, with no repair stats.
func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{})
	if rec.Stats.FramesReplayed != 0 || len(rec.Tail) != 0 {
		t.Fatalf("fresh dir should recover nothing, got %+v", rec.Stats)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(servedRec(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, dir, Options{})
	defer l2.Close()
	if got := len(rec2.Tail); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
	for i, r := range rec2.Tail {
		if want := servedRec(i); r.SQL != want.SQL || r.Type != TypeServed || r.Source != "approximation" {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
	st := rec2.Stats
	if st.FramesDropped != 0 || st.TruncatedBytes != 0 || st.StaleSegmentsRemoved != 0 {
		t.Fatalf("clean log reported repairs: %+v", st)
	}
}

// TestConcurrentDurableAppends: many goroutines share group commits; every
// acknowledged record survives a re-open.
func TestConcurrentDurableAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(Record{Type: TypeServed, SQL: fmt.Sprintf("q-%d-%d", w, i)}); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := openT(t, dir, Options{})
	if got, want := len(rec.Tail), workers*per; got != want {
		t.Fatalf("recovered %d records, want %d", got, want)
	}
	seen := make(map[string]bool, workers*per)
	for _, r := range rec.Tail {
		if seen[r.SQL] {
			t.Fatalf("duplicate record %q", r.SQL)
		}
		seen[r.SQL] = true
	}
}

// TestSegmentRotation: a small segment budget produces multiple segments and
// recovery reads across all of them in order.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{segmentBytes: 256})
	const n = 40
	for i := 0; i < n; i++ {
		if err := l.Append(servedRec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation with 256-byte segments, got %d segment(s)", st.Segments)
	}
	l.Close()

	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("listSegments = %v, %v; want >= 2 segments", segs, err)
	}
	_, rec := openT(t, dir, Options{segmentBytes: 256})
	if got := len(rec.Tail); got != n {
		t.Fatalf("recovered %d records across segments, want %d", got, n)
	}
	for i, r := range rec.Tail {
		if r.SQL != servedRec(i).SQL {
			t.Fatalf("record %d out of order: %q", i, r.SQL)
		}
	}
}

// TestCheckpointTruncatesHistory: records before a checkpoint are not
// replayed and their segments are deleted; records after it are.
func TestCheckpointTruncatesHistory(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{segmentBytes: 256})
	for i := 0; i < 20; i++ {
		if err := l.Append(servedRec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Checkpoint(7); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 20; i < 25; i++ {
		if err := l.Append(servedRec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()

	_, rec := openT(t, dir, Options{segmentBytes: 256})
	if got := tailSQLs(rec.Tail); len(got) != 5 || got[0] != servedRec(20).SQL {
		t.Fatalf("post-checkpoint tail = %v, want records 20..24", got)
	}
	if rec.Stats.CheckpointGen != 7 {
		t.Fatalf("CheckpointGen = %d, want 7", rec.Stats.CheckpointGen)
	}
	if rec.Stats.FramesSkipped != 0 {
		// Checkpoint prunes the pre-checkpoint segments; nothing should be
		// left to skip on a clean run.
		t.Fatalf("FramesSkipped = %d, want 0 (segments pruned)", rec.Stats.FramesSkipped)
	}
}

// TestTornTailTruncated: bytes cut mid-frame at the end of the last segment
// are physically truncated and every complete frame survives.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := l.Append(servedRec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()

	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil { // tear the last frame
		t.Fatal(err)
	}

	_, rec := openT(t, dir, Options{})
	if got := len(rec.Tail); got != 9 {
		t.Fatalf("recovered %d records after torn tail, want 9", got)
	}
	if rec.Stats.TruncatedBytes == 0 {
		t.Fatalf("expected TruncatedBytes > 0, got %+v", rec.Stats)
	}
	// The torn bytes are gone from disk: a second open is clean.
	_, rec2 := openT(t, dir, Options{})
	if rec2.Stats.TruncatedBytes != 0 || len(rec2.Tail) != 9 {
		t.Fatalf("second open not clean: %+v, %d records", rec2.Stats, len(rec2.Tail))
	}
}

// TestMidFileCorruptionSkipped: a corrupted frame in the middle is dropped
// and counted; frames on both sides survive.
func TestMidFileCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := l.Append(servedRec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()

	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle of the file (not in a header, so the
	// frame still parses structurally but fails CRC).
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openT(t, dir, Options{})
	if rec.Stats.FramesDropped == 0 {
		t.Fatalf("expected dropped frames, got %+v", rec.Stats)
	}
	if got := len(rec.Tail); got >= 10 || got < 8 {
		t.Fatalf("recovered %d records, want 8..9 (one region corrupted)", got)
	}
	// Replayed records are a subsequence of what was written: nothing invented.
	want := make(map[string]bool, 10)
	for i := 0; i < 10; i++ {
		want[servedRec(i).SQL] = true
	}
	for _, r := range rec.Tail {
		if !want[r.SQL] {
			t.Fatalf("replay invented record %q", r.SQL)
		}
	}
}

// TestAppendAsyncDurableAtClose: async appends are not acknowledged durable,
// but a clean Close syncs them; they all survive.
func TestAppendAsyncDurableAtClose(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 30; i++ {
		if err := l.AppendAsync(servedRec(i)); err != nil {
			t.Fatalf("AppendAsync: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, rec := openT(t, dir, Options{})
	if got := len(rec.Tail); got != 30 {
		t.Fatalf("recovered %d async records after clean close, want 30", got)
	}
}

// TestNilLogNoOps: a nil *Log accepts every call.
func TestNilLogNoOps(t *testing.T) {
	var l *Log
	if err := l.Append(servedRec(0)); err != nil {
		t.Fatalf("nil Append: %v", err)
	}
	if err := l.AppendAsync(servedRec(0)); err != nil {
		t.Fatalf("nil AppendAsync: %v", err)
	}
	if err := l.Checkpoint(1); err != nil {
		t.Fatalf("nil Checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if st := l.Stats(); st.Segments != 0 {
		t.Fatalf("nil Stats = %+v", st)
	}
}

// TestMaxSegmentsPrunes: segment retention is the log's one bounded store.
// Rotating well past the cap leaves exactly maxSegments segments, the ones
// gone are the oldest, and wal/segments_pruned counts each of them.
func TestMaxSegmentsPrunes(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	pruned := obs.Default().Counter("wal/segments_pruned")
	before := pruned.Value()

	const maxSegs = maxSegments
	dir := t.TempDir()
	// A one-byte threshold puts every record in a segment of its own.
	l, _ := openT(t, dir, Options{segmentBytes: 1})
	for i := 0; i < 3*maxSegs+4; i++ {
		if err := l.Append(servedRec(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if st := l.Stats(); st.Segments != maxSegs {
		t.Fatalf("retention cap ignored: %d segments, want %d", st.Segments, maxSegs)
	}
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) != maxSegs {
		t.Fatalf("%d segment files on disk, want %d", len(segs), maxSegs)
	}
	// Segments are numbered from 1 in the order they were opened, so the
	// newest's number is how many there have been.
	opened := segs[maxSegs-1]
	if opened < 3*maxSegs {
		t.Fatalf("only %d segments were ever opened; the test means to overfill the cap 3x", opened)
	}
	for i, seq := range segs {
		if want := opened - maxSegs + 1 + i; seq != want {
			t.Fatalf("surviving segments %v are not the newest %d of %d: the oldest was not the one pruned", segs, maxSegs, opened)
		}
	}
	if got, want := pruned.Value()-before, int64(opened-maxSegs); got != want {
		t.Errorf("wal/segments_pruned advanced by %d, want %d (one per segment over the cap)", got, want)
	}
}

// TestRecoveryNeverReopensSealedSegments: appends after recovery go to a new
// segment; the recovered segment's bytes stay untouched.
func TestRecoveryNeverReopensSealedSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := l.Append(servedRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	before, _ := os.ReadFile(path)

	l2, _ := openT(t, dir, Options{})
	for i := 5; i < 10; i++ {
		if err := l2.Append(servedRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	l2.Close()
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatalf("recovered segment %s was modified by post-recovery appends", path)
	}
	_, rec := openT(t, dir, Options{})
	if got := len(rec.Tail); got != 10 {
		t.Fatalf("recovered %d records, want 10", got)
	}
}
