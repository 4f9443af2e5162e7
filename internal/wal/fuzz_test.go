package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay throws arbitrary destruction at a known-good multi-segment
// log — bit flips, zeroed ranges, truncations, anywhere in any segment — and
// asserts the recovery scanner's contract:
//
//   - Open never panics and never errors on damage (damage is data loss to
//     account for, not a failure to start);
//   - the replayed tail is a subsequence of what was written: corruption can
//     lose frames but never invent, duplicate, or reorder them;
//   - a frame lost from the *middle* of the survivors is always accounted
//     for in FramesDropped (a lost suffix may instead be truncated tail
//     bytes or an exact-boundary cut, which is indistinguishable from
//     frames that never reached the disk);
//   - recovery repairs the disk: a second Open is clean and replays the
//     same tail.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 10, 1, 0})
	f.Add([]byte{1, 0, 50, 30, 1, 2, 1, 200, 0, 2})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 1, 255, 7, 1, 1, 2, 40, 9, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		dir := t.TempDir()
		written := seedLog(t, dir)

		applyCorruption(t, dir, ops)

		l, rec := openT(t, dir, Options{segmentBytes: 256})
		replayed := tailSQLs(rec.Tail)

		// Subsequence check, recording which written frames survived.
		matched := make([]bool, len(written))
		j := 0
		for _, g := range replayed {
			for j < len(written) && written[j] != g {
				j++
			}
			if j == len(written) {
				t.Fatalf("replayed frame %q not in written order %v", g, written)
			}
			matched[j] = true
			j++
		}

		// Mid-gap accounting: a hole strictly between two survivors must be
		// a counted drop.
		last := -1
		for i := len(matched) - 1; i >= 0; i-- {
			if matched[i] {
				last = i
				break
			}
		}
		first := -1
		for i, m := range matched {
			if m {
				first = i
				break
			}
		}
		if first >= 0 {
			for i := first; i < last; i++ {
				if !matched[i] && rec.Stats.FramesDropped == 0 {
					t.Fatalf("frame %q lost mid-stream with FramesDropped=0 (stats %+v, replayed %v)",
						written[i], rec.Stats, replayed)
				}
			}
		}
		if rec.Stats.FramesDropped < 0 || rec.Stats.TruncatedBytes < 0 {
			t.Fatalf("negative damage counters: %+v", rec.Stats)
		}

		if err := l.Close(); err != nil {
			t.Fatalf("close after damaged open: %v", err)
		}

		// Second restart: disk is repaired, replay is stable.
		l2, rec2 := openT(t, dir, Options{segmentBytes: 256})
		defer l2.Close()
		if rec2.Stats.TruncatedBytes != 0 {
			t.Fatalf("second open still truncating: %+v", rec2.Stats)
		}
		again := tailSQLs(rec2.Tail)
		if len(again) != len(replayed) {
			t.Fatalf("replay unstable: %d then %d frames", len(replayed), len(again))
		}
		for i := range again {
			if again[i] != replayed[i] {
				t.Fatalf("replay unstable at %d: %q vs %q", i, replayed[i], again[i])
			}
		}
	})
}

// seedLog writes a deterministic workload spanning several segments, with a
// checkpoint partway through, and returns the full written SQL order (the
// superset any replay must be a subsequence of; the undamaged tail is the
// post-checkpoint suffix).
func seedLog(t *testing.T, dir string) []string {
	t.Helper()
	l, _ := openT(t, dir, Options{segmentBytes: 256})
	var written []string
	for i := 0; i < 24; i++ {
		if i == 8 {
			if err := l.Checkpoint(3); err != nil {
				t.Fatal(err)
			}
			continue
		}
		sql := fmt.Sprintf("q-%02d", i)
		if err := l.Append(Record{Type: TypeServed, SQL: sql}); err != nil {
			t.Fatal(err)
		}
		written = append(written, sql)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return written
}

// applyCorruption decodes ops as 5-byte instructions (kind, segment pick,
// offset hi/lo, arg) and applies each to an on-disk segment: 0 = flip one
// bit, 1 = zero a range, 2 = truncate at offset.
func applyCorruption(t *testing.T, dir string, ops []byte) {
	t.Helper()
	for len(ops) >= 5 && len(ops) <= 8*5 {
		op, rest := ops[:5], ops[5:]
		ops = rest
		segs, err := listSegments(dir)
		if err != nil || len(segs) == 0 {
			return
		}
		path := filepath.Join(dir, segName(segs[int(op[1])%len(segs)]))
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			continue
		}
		off := (int(op[2])<<8 | int(op[3])) % len(data)
		switch op[0] % 3 {
		case 0: // flip a bit
			data[off] ^= 1 << (op[4] % 8)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		case 1: // zero a range
			end := off + int(op[4])
			if end > len(data) {
				end = len(data)
			}
			for i := off; i < end; i++ {
				data[i] = 0
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		case 2: // torn tail
			if err := os.Truncate(path, int64(off)); err != nil {
				t.Fatal(err)
			}
		}
	}
}
