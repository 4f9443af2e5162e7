package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Exporter file-rotation bounds: a trace directory never grows past
// traceFiles×traceFileBytes (32 MiB), so a long-running server's durable
// trace history is bounded like every other buffer in the system.
const (
	traceFileBytes = 8 << 20
	traceFiles     = 4
)

// JSONLExporter writes kept traces as one JSON object per line into
// size-rotated files (traces-NNNNNN.jsonl) under a directory. Rotation is
// size-based: when the active file exceeds its byte budget a new sequence
// file is opened and the oldest files beyond the retention count are
// deleted. Writes are synchronous and serialized; a failed write surfaces as
// an error to the sampler, which counts it and drops the trace rather than
// blocking the request path.
type JSONLExporter struct {
	dir          string
	maxFileBytes int64
	maxFiles     int

	mu     sync.Mutex
	f      *os.File
	size   int64
	seq    int
	closed bool
}

// NewJSONLExporter creates dir if needed and opens a fresh sequence file
// after any left by previous runs. The directory holds at most traceFiles
// files of traceFileBytes each.
func NewJSONLExporter(dir string) (*JSONLExporter, error) {
	return newJSONLExporter(dir, traceFileBytes, traceFiles)
}

// newJSONLExporter is NewJSONLExporter with explicit rotation bounds.
func newJSONLExporter(dir string, maxFileBytes int64, maxFiles int) (*JSONLExporter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: trace dir: %w", err)
	}
	e := &JSONLExporter{dir: dir, maxFileBytes: maxFileBytes, maxFiles: maxFiles}
	e.seq = e.lastSeq()
	if err := e.rotateLocked(); err != nil {
		return nil, err
	}
	return e, nil
}

// ExportTrace appends one trace as a JSONL line, rotating first if the
// active file is over budget. It implements TraceSink. Nil-safe: a nil
// *JSONLExporter silently drops the trace, so a typed-nil handed to
// ConfigureTracing (an Exporter interface wrapping a nil pointer passes the
// sampler's != nil check) degrades to "no export" instead of panicking the
// first sampled span.
func (e *JSONLExporter) ExportTrace(rec TraceRecord) error {
	if e == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("obs: trace marshal: %w", err)
	}
	line = append(line, '\n')
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("obs: trace exporter closed")
	}
	if e.size+int64(len(line)) > e.maxFileBytes && e.size > 0 {
		if err := e.rotateLocked(); err != nil {
			return err
		}
	}
	n, err := e.f.Write(line)
	e.size += int64(n)
	if err != nil {
		// The active file is wedged (ENOSPC after the partial write, a handle
		// invalidated from outside, a deleted directory entry). Rotate once
		// to a fresh sequence file and retry there: a transient failure
		// self-heals on the spot, a persistent one (disk truly full) fails
		// the rotation or the retry and degrades to a counted drop in the
		// sampler — this trace is lost either way, but the exporter never
		// wedges permanently and never spins.
		if rerr := e.rotateLocked(); rerr != nil {
			return fmt.Errorf("obs: trace write: %w (rotate: %v)", err, rerr)
		}
		if _, rerr := e.f.Write(line); rerr != nil {
			e.size += int64(len(line)) // force rotation on the next attempt
			return fmt.Errorf("obs: trace write after rotate: %w", rerr)
		}
		e.size = int64(len(line))
		return nil
	}
	return nil
}

// Dir returns the export directory.
func (e *JSONLExporter) Dir() string { return e.dir }

// Close flushes and closes the active file. Further exports fail.
func (e *JSONLExporter) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.f == nil {
		return nil
	}
	err := e.f.Close()
	e.f = nil
	return err
}

// rotateLocked opens the next sequence file and prunes files beyond the
// retention count. Called with e.mu held (or before the exporter escapes).
func (e *JSONLExporter) rotateLocked() error {
	if e.f != nil {
		_ = e.f.Close()
		e.f = nil
	}
	e.seq++
	path := filepath.Join(e.dir, fmt.Sprintf("traces-%06d.jsonl", e.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("obs: trace file: %w", err)
	}
	e.f = f
	e.size = 0
	e.pruneLocked()
	return nil
}

// lastSeq scans the directory for the highest existing sequence number.
func (e *JSONLExporter) lastSeq() int {
	files, _ := filepath.Glob(filepath.Join(e.dir, "traces-*.jsonl"))
	last := 0
	for _, f := range files {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(f), "traces-%d.jsonl", &n); err == nil && n > last {
			last = n
		}
	}
	return last
}

// pruneLocked deletes the oldest files beyond the retention count.
func (e *JSONLExporter) pruneLocked() {
	files, _ := filepath.Glob(filepath.Join(e.dir, "traces-*.jsonl"))
	if len(files) <= e.maxFiles {
		return
	}
	sort.Strings(files) // zero-padded sequence numbers sort chronologically
	for _, f := range files[:len(files)-e.maxFiles] {
		_ = os.Remove(f)
	}
}
