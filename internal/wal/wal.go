// Package wal is the crash-safe durability layer of ASQP-RL's serving loop:
// a CRC32-framed, segment-rotated write-ahead log that durably records served
// statements, drift observations, and retrain lifecycle events, so the
// continuous-learning signal survives process death instead of evaporating
// with the heap.
//
// Design, in the order the guarantees matter:
//
//   - Frames reuse the snapshot codec's magic/version/length/CRC idea: every
//     record is a 22-byte header — magic AWAL (4 B), version (1), type (1),
//     frame sequence (8, little-endian), payload length (4), CRC32-IEEE (4) —
//     and a JSON payload. The CRC covers header bytes [4:18) and the payload,
//     so a bit flip anywhere, the sequence field included, fails
//     verification: replay rejects torn or bit-flipped frames by
//     construction, never by decoder luck.
//   - Sequences are monotonic per directory and continue across restarts
//     (recovery seeds the next log's counter from the highest one seen), so
//     replay counts losses exactly: a gap adds seq − prev − 1 to
//     FramesDropped, a duplicate or backward jump drops the frame itself. A
//     sealed segment truncated at a frame boundary passes every per-frame
//     checksum; only the sequence line shows the frames are gone.
//   - Append acknowledges only after fsync. Appends are group-committed: a
//     single syncer goroutine batches every frame written while the previous
//     fsync was in flight into the next one, so concurrent appenders share
//     fsyncs instead of queueing on them. AppendAsync only buffers its frame,
//     for high-volume evidence (served statements, drift observations): the
//     first async frame after a sync arms a deadline of asyncSyncInterval
//     (5 ms), and the group commit at that deadline — or any earlier durable
//     Append, Checkpoint, rotation or Close — makes it durable. A crash loses
//     at most the async frames of the last interval, an explicit, documented
//     trade; an idle log never wakes.
//   - Segments rotate at a size threshold (`wal-NNNNNNNN.seg`); rotation
//     fsyncs and closes the old segment first, so completed segments are
//     immutable history.
//   - Checkpoint(gen) marks "everything before this point is captured by the
//     snapshot of generation gen": it rotates, writes a checkpoint frame as
//     the new segment's first record, fsyncs, and deletes the older
//     segments. Recovery replays only frames after the last checkpoint.
//   - A failed fsync is sticky-fatal (the fsyncgate lesson): once the kernel
//     has possibly dropped a page, no later fsync can resurrect the
//     guarantee, so every subsequent Append fails loudly and the operator
//     restarts into recovery instead of serving from a lying log.
//
// Every write/fsync/rename boundary carries a fault-injection point
// (faults.PointWAL*) so the crash matrix in crash_test.go can simulate
// process death at each one and prove recovery never loses an acknowledged
// frame.
package wal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"asqprl/internal/faults"
	"asqprl/internal/obs"
)

// Type tags what a record describes.
type Type uint8

const (
	// TypeServed is one served statement (canonical SQL + routing outcome).
	TypeServed Type = 1
	// TypeDrift is one drift observation: a served statement whose estimator
	// confidence marked it as deviating from the training workload.
	TypeDrift Type = 2
	// TypeRetrain is a retrain-controller lifecycle event ("started",
	// "validated", "swapped", "rolled_back", "failed", "gave_up").
	TypeRetrain Type = 3
	// TypeCheckpoint marks a snapshot boundary: everything before it is
	// captured by the snapshot of the record's Generation.
	TypeCheckpoint Type = 4
	// TypeDiag marks a flight-recorder capture: the Event field holds the
	// trigger reason (e.g. "slo-latency") and Path the bundle name. If the
	// replayed tail ends with diag records, recovery reports that the
	// process crashed while alerting.
	TypeDiag Type = 5
)

// String names the record type for logs and stats.
func (t Type) String() string {
	switch t {
	case TypeServed:
		return "served"
	case TypeDrift:
		return "drift"
	case TypeRetrain:
		return "retrain"
	case TypeCheckpoint:
		return "checkpoint"
	case TypeDiag:
		return "diag"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is one logged fact. Fields are a union over the record types; JSON
// omit-empty keeps frames small.
type Record struct {
	Type Type `json:"type"`
	// UnixNs is the wall-clock time the record was appended (stamped by the
	// caller so replay tests stay deterministic).
	UnixNs int64 `json:"t,omitempty"`
	// SQL is the canonical statement text (served / drift records).
	SQL string `json:"sql,omitempty"`
	// Confidence is the estimator similarity confidence at observe time
	// (drift records); replay feeds it back into the drift detector so the
	// restored detector makes the same drifted/not decision.
	Confidence float64 `json:"conf,omitempty"`
	// Source is "approximation" or "full" (served records).
	Source string `json:"src,omitempty"`
	// Degraded mirrors the response tagging (served records).
	Degraded bool `json:"deg,omitempty"`
	// Event is the retrain lifecycle event name (retrain records).
	Event string `json:"event,omitempty"`
	// Generation is the snapshot/publish generation (checkpoint records, and
	// retrain swapped/rolled_back events).
	Generation int64 `json:"gen,omitempty"`
	// Queries is the drifted-batch size (retrain "started" events).
	Queries int `json:"queries,omitempty"`
	// Attempt is the per-batch attempt number (retrain "failed"/"validated").
	Attempt int `json:"attempt,omitempty"`
	// Path is the flight-recorder bundle name (diag records).
	Path string `json:"path,omitempty"`
}

// Frame layout: magic (4) + version (1) + type (1) + sequence (8, LE) +
// payload length (4, LE) + CRC32-IEEE (4, LE) + payload. The CRC covers the
// header after the magic plus the payload, so a bit flip anywhere in a frame
// fails verification — including the sequence field, which replay trusts for
// exact loss accounting. Sequences are per-directory monotonic (a restart
// continues after the highest recovered sequence), so a hole in the sequence
// line is a hole in history: replay counts exactly how many frames a damaged
// or missing region swallowed, even when the damage erased the frames
// themselves — e.g. a sealed segment truncated at a clean frame boundary,
// which no per-frame checksum can see. The magic differs from the snapshot
// codec's so a WAL segment can never be mistaken for a snapshot (or vice
// versa) by a confused operator script.
var frameMagic = [4]byte{'A', 'W', 'A', 'L'}

const (
	frameVersion   = 1
	frameHeaderLen = 4 + 1 + 1 + 8 + 4 + 4
	// frameMaxPayload caps a single record; anything larger in a length field
	// is corruption, not data.
	frameMaxPayload = 1 << 24
)

// marshalRecord serializes the payload half of a frame (done outside the log
// mutex; the header needs the under-mutex sequence number).
func marshalRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("wal: encode: %w", err)
	}
	if len(payload) > frameMaxPayload {
		return nil, fmt.Errorf("wal: encode: record payload %d exceeds cap", len(payload))
	}
	return payload, nil
}

// buildFrame assembles the full frame for a marshaled payload.
func buildFrame(typ Type, seq uint64, payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	copy(buf[:4], frameMagic[:])
	buf[4] = frameVersion
	buf[5] = byte(typ)
	binary.LittleEndian.PutUint64(buf[6:14], seq)
	binary.LittleEndian.PutUint32(buf[14:18], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(buf[4:18])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(buf[18:22], crc)
	copy(buf[frameHeaderLen:], payload)
	return buf
}

// Options is what Open takes besides the directory. Every caller passes the
// zero value.
type Options struct {
	// segmentBytes rotates segments at another size for in-package tests;
	// zero means the 4 MiB constant of the same name.
	segmentBytes int64
	// asyncSyncInterval group-commits async frames on another cadence for
	// in-package tests; zero means the constant of the same name.
	asyncSyncInterval time.Duration
}

// A segment is sealed once appending would take it past segmentBytes, and
// maxSegments bounds the directory: rotation beyond it prunes the oldest
// segment, sacrificing (and counting) its evidence rather than growing
// without bound between checkpoints. asyncSyncInterval is the longest an
// async frame waits in the buffer for its group commit.
const (
	segmentBytes      = 4 << 20
	maxSegments       = 64
	asyncSyncInterval = 5 * time.Millisecond
)

// Log is an append-only, segment-rotated write-ahead log. Safe for concurrent
// use. A nil *Log is a valid disabled log: every method is a cheap no-op, so
// serving layers can thread an optional log without branching.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when flushed advances or the log fails
	f        *os.File
	w        *bufio.Writer
	seq      int    // active segment sequence number
	size     int64  // bytes written (including buffered) to the active segment
	segs     []int  // live segment sequence numbers, ascending (incl. active)
	written  uint64 // last assigned frame sequence (seeded from recovery)
	flushed  uint64 // highest frame sequence known durable (fsynced)
	appended int64  // lifetime appended frames (stats)
	ckptGen  int64  // generation of the last checkpoint written
	failed   error  // sticky fsync/write failure
	closed   bool
	syncBusy bool // a group fsync is in flight outside mu

	// asyncDue is set while an async frame waits for the group commit that
	// asyncTimer will request; the sync that captures it clears it, so the
	// next async frame arms the timer again.
	asyncDue   bool
	asyncTimer *time.Timer

	syncReq chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
}

// Stats is a point-in-time view of the log for /stats.
type Stats struct {
	Dir           string `json:"dir"`
	Segments      int    `json:"segments"`
	Appended      int64  `json:"appended"`
	ActiveBytes   int64  `json:"active_bytes"`
	CheckpointGen int64  `json:"checkpoint_gen"`
	Failed        string `json:"failed,omitempty"`
}

// What no page carries: segments retention discarded with their evidence.
// Everything else the log counts is on Stats and Recovery — the failure that
// turned the log read-only is Stats.Failed.
var segmentsPruned = obs.Default().Counter("wal/segments_pruned")

// segName formats a segment file name; segSeq parses one.
func segName(seq int) string { return fmt.Sprintf("wal-%08d.seg", seq) }

func segSeq(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "wal-%d.seg", &n); err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the sequence numbers of the segments in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := segSeq(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// Append durably logs rec: it returns nil only after the frame is fsynced.
// Under group commit, concurrent Appends share fsyncs. On a nil or failed log
// it returns immediately (nil log: no-op nil; failed log: the sticky error).
func (l *Log) Append(rec Record) error {
	if l == nil {
		return nil
	}
	my, err := l.write(rec, false)
	if err != nil {
		return err
	}
	l.kick()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushed < my && l.failed == nil && !l.closed {
		l.cond.Wait()
	}
	if l.failed != nil && l.flushed < my {
		return l.failed
	}
	if l.closed && l.flushed < my {
		return fmt.Errorf("wal: closed before frame %d was durable", my)
	}
	return nil
}

// AppendAsync logs rec without waiting for durability and without any disk
// work of its own: the frame is buffered for the active segment, and the
// group commit at most asyncSyncInterval later makes it durable — sooner if a
// durable Append, a Checkpoint, a rotation or Close syncs first. A crash
// inside that window loses the record; callers use it for high-volume
// evidence (served statements, drift observations) where the bounded loss
// window is an explicit trade for zero added request latency. Errors
// (rotation failure, failed log) are returned but the caller typically just
// counts them.
func (l *Log) AppendAsync(rec Record) error {
	if l == nil {
		return nil
	}
	_, err := l.write(rec, true)
	return err
}

// kick asks the syncer for a group commit; a request already pending covers
// this one too.
func (l *Log) kick() {
	select {
	case l.syncReq <- struct{}{}:
	default:
	}
}

// write encodes and buffers one frame under mu, rotating first if the active
// segment is over budget. An async frame arms the group-commit deadline if
// none is pending. It returns the frame's sequence number (the value flushed
// must reach for the frame to be durable).
func (l *Log) write(rec Record, async bool) (uint64, error) {
	payload, err := marshalRecord(rec)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if err := faults.Inject(faults.PointWALAppend); err != nil {
		return 0, err
	}
	frameLen := int64(frameHeaderLen + len(payload))
	if l.size+frameLen > l.opts.segmentBytes && l.size > 0 {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	frame := buildFrame(rec.Type, l.written+1, payload)
	if _, err := l.w.Write(frame); err != nil {
		l.failLocked(fmt.Errorf("wal: write segment %d: %w", l.seq, err))
		return 0, l.failed
	}
	l.size += int64(len(frame))
	l.written++
	l.appended++
	if async && !l.asyncDue {
		l.asyncDue = true
		if l.asyncTimer == nil {
			l.asyncTimer = time.AfterFunc(l.opts.asyncSyncInterval, l.kick)
		} else {
			l.asyncTimer.Reset(l.opts.asyncSyncInterval)
		}
	}
	return l.written, nil
}

// flushAndSyncLocked drains the buffer and fsyncs the active segment under
// mu. Rotation uses it too; errors become sticky.
func (l *Log) flushAndSyncLocked() error {
	if err := faults.Inject(faults.PointWALSync); err != nil {
		l.failLocked(err)
		return err
	}
	if err := l.w.Flush(); err != nil {
		l.failLocked(fmt.Errorf("wal: flush segment %d: %w", l.seq, err))
		return l.failed
	}
	if err := l.f.Sync(); err != nil {
		l.failLocked(fmt.Errorf("wal: fsync segment %d: %w", l.seq, err))
		return l.failed
	}
	return nil
}

// syncer is the group-commit goroutine: every wakeup — a durable Append, or
// the deadline an async frame armed — flushes the buffer under mu, then
// fsyncs outside it so appenders keep writing into the next batch.
func (l *Log) syncer() {
	defer l.wg.Done()
	for {
		select {
		case <-l.stop:
			return
		case <-l.syncReq:
		}
		l.mu.Lock()
		if l.closed || l.failed != nil {
			l.cond.Broadcast()
			l.mu.Unlock()
			continue
		}
		if l.flushed == l.written {
			l.mu.Unlock()
			continue
		}
		if err := faults.Inject(faults.PointWALSync); err != nil {
			l.failLocked(err)
			l.cond.Broadcast()
			l.mu.Unlock()
			continue
		}
		if err := l.w.Flush(); err != nil {
			l.failLocked(fmt.Errorf("wal: flush segment %d: %w", l.seq, err))
			l.cond.Broadcast()
			l.mu.Unlock()
			continue
		}
		target := l.written
		f := l.f
		l.syncBusy = true
		l.asyncDue = false // this sync carries every async frame so far
		l.mu.Unlock()

		err := f.Sync()

		l.mu.Lock()
		l.syncBusy = false
		switch {
		case err == nil:
			if target > l.flushed {
				l.flushed = target
			}
		case l.flushed >= target:
			// A rotation fsynced-and-closed the file under us; the frames we
			// were syncing are already durable, so the stale-handle error is
			// benign.
		default:
			l.failLocked(fmt.Errorf("wal: fsync segment: %w", err))
		}
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// rotateLocked seals the active segment (flush + fsync + close — completed
// segments are immutable history) and opens the next one. Caller holds mu.
func (l *Log) rotateLocked() error {
	if err := faults.Inject(faults.PointWALRotate); err != nil {
		l.failLocked(err)
		return l.failed
	}
	// Wait out any in-flight group fsync so closing the file cannot race it.
	for l.syncBusy {
		l.cond.Wait()
	}
	if l.f != nil {
		if err := l.w.Flush(); err != nil {
			l.failLocked(fmt.Errorf("wal: rotate flush segment %d: %w", l.seq, err))
			return l.failed
		}
		if err := l.f.Sync(); err != nil {
			l.failLocked(fmt.Errorf("wal: rotate fsync segment %d: %w", l.seq, err))
			return l.failed
		}
		l.flushed = l.written // everything so far is durable
		l.asyncDue = false
		l.cond.Broadcast()
		if err := l.f.Close(); err != nil {
			l.failLocked(fmt.Errorf("wal: rotate close segment %d: %w", l.seq, err))
			return l.failed
		}
	}
	if err := l.openSegmentLocked(l.seq + 1); err != nil {
		return err
	}
	// Retention cap: prune the oldest segments beyond maxSegments. Their
	// evidence is sacrificed and counted — bounded disk beats unbounded truth.
	for len(l.segs) > maxSegments {
		oldest := l.segs[0]
		if err := os.Remove(filepath.Join(l.dir, segName(oldest))); err != nil && !os.IsNotExist(err) {
			break // leave it for the next rotation; pruning is best-effort
		}
		l.segs = l.segs[1:]
		segmentsPruned.Inc()
	}
	return nil
}

// openSegmentLocked creates segment seq and makes it active. Caller holds mu.
func (l *Log) openSegmentLocked(seq int) error {
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.failLocked(fmt.Errorf("wal: open segment %s: %w", path, err))
		return l.failed
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.seq = seq
	l.size = 0
	l.segs = append(l.segs, seq)
	// Persist the new directory entry so a crash right after rotation cannot
	// lose the (empty) segment and confuse sequence recovery.
	syncDir(l.dir)
	return nil
}

// Checkpoint records that the snapshot of generation gen captures every prior
// frame: it rotates to a fresh segment whose first frame is the checkpoint
// record, fsyncs it, and deletes the older segments. Recovery replays only
// frames after the last durable checkpoint. A crash between the checkpoint
// fsync and the deletions leaves stale segments behind — startup hygiene in
// Open removes them.
func (l *Log) Checkpoint(gen int64) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log closed")
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if err := l.rotateLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	payload, err := marshalRecord(Record{Type: TypeCheckpoint, Generation: gen})
	if err != nil {
		l.mu.Unlock()
		return err
	}
	frame := buildFrame(TypeCheckpoint, l.written+1, payload)
	if _, err := l.w.Write(frame); err != nil {
		l.failLocked(fmt.Errorf("wal: checkpoint write: %w", err))
		err := l.failed
		l.mu.Unlock()
		return err
	}
	l.size += int64(len(frame))
	l.written++
	l.appended++
	if err := l.flushAndSyncLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	l.flushed = l.written
	l.ckptGen = gen
	l.cond.Broadcast()
	ckptSeq := l.seq
	stale := make([]int, 0, len(l.segs))
	for _, s := range l.segs {
		if s < ckptSeq {
			stale = append(stale, s)
		}
	}
	l.mu.Unlock()

	// The checkpoint is durable; deleting consumed history can happen outside
	// mu. The injection point simulates dying between the two — recovery then
	// sees stale segments, skips their pre-checkpoint frames, and hygiene
	// removes them.
	if err := faults.Inject(faults.PointWALCheckpoint); err != nil {
		return err
	}
	for _, s := range stale {
		if err := os.Remove(filepath.Join(l.dir, segName(s))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: checkpoint prune segment %d: %w", s, err)
		}
	}
	syncDir(l.dir)
	l.mu.Lock()
	kept := l.segs[:0]
	for _, s := range l.segs {
		if s >= ckptSeq {
			kept = append(kept, s)
		}
	}
	l.segs = kept
	l.mu.Unlock()
	return nil
}

// Stats returns a point-in-time view for /stats. Nil-safe.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Dir:           l.dir,
		Segments:      len(l.segs),
		Appended:      l.appended,
		ActiveBytes:   l.size,
		CheckpointGen: l.ckptGen,
	}
	if l.failed != nil {
		st.Failed = l.failed.Error()
	}
	return st
}

// Close flushes, fsyncs, and closes the active segment, then stops the
// syncer. Nil-safe and idempotent. A clean Close means no torn tail on the
// next Open.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	for l.syncBusy {
		l.cond.Wait()
	}
	if l.asyncTimer != nil {
		l.asyncTimer.Stop()
	}
	var err error
	if l.failed == nil && l.f != nil {
		if ferr := l.w.Flush(); ferr != nil {
			err = ferr
		} else if serr := l.f.Sync(); serr != nil {
			err = serr
		} else {
			l.flushed = l.written
		}
	}
	if l.f != nil {
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	close(l.stop)
	l.wg.Wait()
	return err
}

// failLocked records the first fatal error; later calls keep the original.
// Caller holds mu.
func (l *Log) failLocked(err error) {
	if l.failed == nil {
		l.failed = err
		obs.Logger().Error("wal failed; log is read-only until restart", "dir", l.dir, "err", err)
	}
}

// syncDir best-effort fsyncs a directory so renames/creates/unlinks are
// durable (same idiom as core.SaveFile).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
