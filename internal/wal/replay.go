package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"asqprl/internal/obs"
)

// RecoveryStats summarizes what startup replay found and fixed; it is
// surfaced verbatim in /stats and as wal/recovery_* metrics so operators can
// see exactly how much evidence a crash cost.
type RecoveryStats struct {
	// Segments is how many segment files were scanned.
	Segments int `json:"segments"`
	// FramesReplayed counts valid frames after the last checkpoint that were
	// handed back for replay.
	FramesReplayed int `json:"frames_replayed"`
	// FramesSkipped counts valid frames at or before the last checkpoint
	// (already captured by the snapshot).
	FramesSkipped int `json:"frames_skipped"`
	// FramesDropped counts frames lost to damage, measured exactly from holes
	// in the frame-sequence line (a corrupt frame skipped by resync, a region
	// zeroed over, a sealed segment cut at a frame boundary — all leave the
	// same evidence: missing sequence numbers between surviving frames).
	FramesDropped int `json:"frames_dropped"`
	// TruncatedBytes is how many torn-tail bytes were physically cut from the
	// last segment.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// StaleSegmentsRemoved counts pre-checkpoint segments deleted by hygiene
	// (a crash between checkpoint fsync and prune leaves them behind).
	StaleSegmentsRemoved int `json:"stale_segments_removed"`
	// CheckpointGen is the snapshot generation of the last durable
	// checkpoint (0 if none).
	CheckpointGen int64 `json:"checkpoint_gen"`
	// WallMs is how long the scan + replay preparation took.
	WallMs float64 `json:"wall_ms"`
}

// Recovery is what Open found on disk: the stats and the tail of records
// (everything after the last checkpoint) for the caller to replay into live
// state.
type Recovery struct {
	Stats RecoveryStats
	Tail  []Record
}

// scannedFrame is one valid frame recovered from disk, with its header
// sequence number for gap accounting.
type scannedFrame struct {
	rec Record
	seq uint64
}

// segScan is the outcome of scanning one segment file.
type segScan struct {
	frames   []scannedFrame
	tornAt   int64 // offset of the torn tail (== file size when clean)
	fileSize int64
}

// scanSegment reads every decodable frame from path. Damage handling has two
// regimes, matching how real logs die:
//
//   - A torn tail (crash mid-write) shows up as a frame that runs past EOF or
//     trailing garbage with no further valid frame: everything from the tear
//     to EOF is reported via tornAt for physical truncation.
//   - Mid-file corruption (bit rot, overwritten page) is skipped by scanning
//     forward byte-by-byte to the next magic.
//
// Counting what the damage cost is not done here: the caller reads it off the
// frame-sequence line, where every lost frame — however it was lost — leaves
// a hole.
func scanSegment(path string) (segScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segScan{}, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	sc := segScan{fileSize: int64(len(data)), tornAt: int64(len(data))}
	off := 0
	lastGood := 0 // end offset of the last fully valid frame
	for off < len(data) {
		rec, seq, n, ok := decodeFrameAt(data[off:])
		if ok {
			sc.frames = append(sc.frames, scannedFrame{rec: rec, seq: seq})
			off += n
			lastGood = off
			continue
		}
		// Invalid at off: resync to the next magic strictly after off.
		next := nextMagic(data, off+1)
		if next < 0 {
			// No further valid frame start: everything from lastGood is tail
			// garbage (most commonly a torn final write).
			sc.tornAt = int64(lastGood)
			return sc, nil
		}
		off = next
	}
	return sc, nil
}

// decodeFrameAt tries to decode one frame at the start of b, returning the
// record, its header sequence number, and its total encoded length.
func decodeFrameAt(b []byte) (Record, uint64, int, bool) {
	if len(b) < frameHeaderLen {
		return Record{}, 0, 0, false
	}
	if !bytes.Equal(b[:4], frameMagic[:]) || b[4] != frameVersion {
		return Record{}, 0, 0, false
	}
	seq := binary.LittleEndian.Uint64(b[6:14])
	plen := binary.LittleEndian.Uint32(b[14:18])
	if plen > frameMaxPayload || int(plen) > len(b)-frameHeaderLen {
		return Record{}, 0, 0, false
	}
	payload := b[frameHeaderLen : frameHeaderLen+int(plen)]
	crc := crc32.ChecksumIEEE(b[4:18])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != binary.LittleEndian.Uint32(b[18:22]) {
		return Record{}, 0, 0, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, 0, false
	}
	if rec.Type != Type(b[5]) {
		return Record{}, 0, 0, false
	}
	return rec, seq, frameHeaderLen + int(plen), true
}

// nextMagic returns the offset of the next frame-magic occurrence at or after
// from, or -1.
func nextMagic(data []byte, from int) int {
	if from < 0 {
		from = 0
	}
	if from >= len(data) {
		return -1
	}
	i := bytes.Index(data[from:], frameMagic[:])
	if i < 0 {
		return -1
	}
	return from + i
}

// Open opens (or creates) the log in dir, recovering whatever a previous
// process left behind:
//
//  1. Scan every segment in order, truncating the last segment's torn tail
//     and skip-counting mid-file corruption.
//  2. Find the last checkpoint record; frames at or before it are already
//     captured by the snapshot and are skipped. Segments that end before the
//     checkpoint's segment are stale (a crash interrupted checkpoint
//     pruning) and are deleted.
//  3. Return the post-checkpoint tail for the caller to replay, and position
//     the writer to append to a fresh segment after the highest existing one
//     (sealed history is never reopened for append — a recovered segment's
//     bytes stay exactly as recovered).
func Open(dir string, opts Options) (*Log, Recovery, error) {
	start := time.Now()
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = segmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, Recovery{}, err
	}

	var rec Recovery
	type scanned struct {
		seq int
		sc  segScan
	}
	var scans []scanned
	for i, seq := range seqs {
		sc, err := scanSegment(filepath.Join(dir, segName(seq)))
		if err != nil {
			return nil, Recovery{}, err
		}
		rec.Stats.Segments++
		if sc.tornAt < sc.fileSize {
			if i == len(seqs)-1 {
				// Torn tail on the final segment: the expected crash artifact.
				// Physically truncate so the bytes never resurface.
				if err := os.Truncate(filepath.Join(dir, segName(seq)), sc.tornAt); err != nil {
					return nil, Recovery{}, fmt.Errorf("wal: truncate torn tail of segment %d: %w", seq, err)
				}
				rec.Stats.TruncatedBytes += sc.fileSize - sc.tornAt
			}
			// Tail garbage on a sealed (non-final) segment is left in place —
			// the file is immutable history. If it buried frames, the sequence
			// line below counts them.
		}
		scans = append(scans, scanned{seq: seq, sc: sc})
	}

	// Walk the surviving frames in disk order, doing three things at once:
	// drop frames whose sequence runs backwards (only forgery or undetected
	// corruption can produce one — recovered appends always continue past the
	// highest recovered sequence), count every hole in the sequence line as
	// exactly that many lost frames, and locate the last checkpoint. Holes
	// before the first survivor are invisible (the expected start is unknown
	// after legitimate checkpoint pruning); everything between survivors is
	// accounted exactly.
	var prevSeq, maxSeq uint64
	ckptSeg, ckptIdx := -1, -1
	for si := range scans {
		kept := scans[si].sc.frames[:0]
		for _, f := range scans[si].sc.frames {
			if prevSeq != 0 && f.seq <= prevSeq {
				rec.Stats.FramesDropped++
				continue
			}
			if prevSeq != 0 && f.seq > prevSeq+1 {
				rec.Stats.FramesDropped += int(f.seq - prevSeq - 1)
			}
			prevSeq = f.seq
			if f.seq > maxSeq {
				maxSeq = f.seq
			}
			kept = append(kept, f)
			if f.rec.Type == TypeCheckpoint {
				ckptSeg, ckptIdx = si, len(kept)-1
				rec.Stats.CheckpointGen = f.rec.Generation
			}
		}
		scans[si].sc.frames = kept
	}
	for si, s := range scans {
		for ri, f := range s.sc.frames {
			atOrBefore := ckptSeg >= 0 && (si < ckptSeg || (si == ckptSeg && ri <= ckptIdx))
			if f.rec.Type == TypeCheckpoint {
				continue
			}
			if atOrBefore {
				rec.Stats.FramesSkipped++
				continue
			}
			rec.Tail = append(rec.Tail, f.rec)
			rec.Stats.FramesReplayed++
		}
	}

	// Hygiene: segments strictly before the checkpoint's segment hold only
	// consumed history — a crash between checkpoint fsync and prune left
	// them. Remove them now so disk usage converges.
	live := make([]int, 0, len(scans))
	for si, s := range scans {
		if ckptSeg >= 0 && si < ckptSeg {
			if err := os.Remove(filepath.Join(dir, segName(s.seq))); err == nil || os.IsNotExist(err) {
				rec.Stats.StaleSegmentsRemoved++
				continue
			}
		}
		live = append(live, s.seq)
	}
	if rec.Stats.StaleSegmentsRemoved > 0 {
		syncDir(dir)
	}

	l := &Log{
		dir:  dir,
		opts: opts,
		segs: live,
		// New frames continue the sequence line past everything recovered, so
		// sequences stay monotonic per directory across restarts and the next
		// recovery's gap accounting stays exact.
		written: maxSeq,
		flushed: maxSeq,
		syncReq: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	next := 1
	if n := len(seqs); n > 0 {
		next = seqs[n-1] + 1
	}
	l.mu.Lock()
	err = l.openSegmentLocked(next)
	l.mu.Unlock()
	if err != nil {
		return nil, Recovery{}, err
	}
	l.ckptGen = rec.Stats.CheckpointGen
	l.wg.Add(1)
	go l.syncer()

	rec.Stats.WallMs = float64(time.Since(start).Microseconds()) / 1e3
	if rec.Stats.FramesDropped > 0 || rec.Stats.TruncatedBytes > 0 {
		obs.Logger().Warn("wal recovery repaired damage",
			"dir", dir,
			"frames_dropped", rec.Stats.FramesDropped,
			"truncated_bytes", rec.Stats.TruncatedBytes,
			"frames_replayed", rec.Stats.FramesReplayed)
	}
	return l, rec, nil
}
