package obs

import (
	"bytes"
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestExporterTransientWriteFailureSelfHeals wedges the exporter's active
// file handle and checks ExportTrace recovers by rotating to a fresh
// sequence file and landing the line there — no error, no lost trace.
func TestExporterTransientWriteFailureSelfHeals(t *testing.T) {
	dir := t.TempDir()
	e, err := NewJSONLExporter(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.mu.Lock()
	e.f.Close() // every write on this handle now fails
	e.mu.Unlock()

	if err := e.ExportTrace(TraceRecord{TraceID: "self-heal", Verdict: "sampled"}); err != nil {
		t.Fatalf("ExportTrace did not self-heal from a wedged handle: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "traces-*.jsonl"))
	var total []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		total = append(total, b...)
	}
	if !bytes.Contains(total, []byte("self-heal")) {
		t.Fatalf("trace line missing after self-heal; files %v hold %q", files, total)
	}
}

// syncBuffer is a concurrency-safe bytes.Buffer for capturing slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestExporterPersistentFailureCountedAndRateLimited makes every export fail
// (wedged handle plus a vanished rotation target) and checks the regression
// contract: each failed export is one counted drop, the request path sees no
// error, and the log gets ONE rate-limited warning instead of one per trace.
func TestExporterPersistentFailureCountedAndRateLimited(t *testing.T) {
	dir := t.TempDir()
	e, err := NewJSONLExporter(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.mu.Lock()
	e.f.Close()
	e.dir = filepath.Join(dir, "vanished") // rotation cannot open a new file
	e.mu.Unlock()

	var captured syncBuffer
	setLogger(slog.New(slog.NewTextHandler(&captured, nil)))
	defer setLogger(nil)
	exportWarn.last.Store(0) // ensure the first failure is eligible to warn

	ConfigureTracing(TracingConfig{SampleRate: 1, Exporter: e})
	defer DisableTracing()

	before := Default().Counter("obs/trace/export_errors").Value()
	const spans = 5
	for i := 0; i < spans; i++ {
		_, s := StartSpan(context.Background(), "req")
		s.End()
	}

	if got := Default().Counter("obs/trace/export_errors").Value() - before; got != spans {
		t.Errorf("obs/trace/export_errors advanced by %d, want %d (counter stays exact)", got, spans)
	}
	if warns := strings.Count(captured.String(), "trace export failed"); warns != 1 {
		t.Errorf("%d export warnings logged for %d failures, want exactly 1 (rate-limited): %s",
			warns, spans, captured.String())
	}
}
