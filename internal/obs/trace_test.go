package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// withTracing enables observability and installs cfg for the test, restoring
// the previous global state afterwards.
func withTracing(t *testing.T, cfg TracingConfig) {
	t.Helper()
	wasEnabled := Enabled()
	ConfigureTracing(cfg)
	ResetTraces()
	t.Cleanup(func() {
		DisableTracing()
		ResetTraces()
		SetEnabled(wasEnabled)
	})
}

func TestTraceparentRoundtrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	for _, sampled := range []bool{true, false} {
		h := FormatTraceparent(tid, sid, sampled)
		if len(h) != 55 {
			t.Fatalf("traceparent %q: len %d, want 55", h, len(h))
		}
		gotTID, gotSID, gotSampled, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", h, err)
		}
		if gotTID != tid || gotSID != sid || gotSampled != sampled {
			t.Fatalf("roundtrip %q: got (%s, %s, %v), want (%s, %s, %v)",
				h, gotTID, gotSID, gotSampled, tid, sid, sampled)
		}
	}
}

// malformedTraceparents are headers ParseTraceparent must reject; they also
// seed FuzzParseTraceparent.
var malformedTraceparents = []string{
	"",
	"00",
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",        // missing flags
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",     // version ff invalid
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01",     // zero trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",     // zero span id
	"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",     // bad hex
	"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",     // bad separator
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x",   // version 00 with extra field
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",     // uppercase trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",     // uppercase parent id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A",     // uppercase flags
	"0A-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x",   // uppercase version
	"cc-4bf92f3577b34da6a3ce929d0e0e473F-00f067aa0ba902b7-01-xyz", // future version, uppercase trace id
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, h := range malformedTraceparents {
		if _, _, _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", h)
		}
	}
	// Unknown future versions are accepted as long as the 00-format prefix
	// parses (W3C forward compatibility).
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-whatever"
	if _, _, _, err := ParseTraceparent(future); err != nil {
		t.Errorf("ParseTraceparent(%q): %v, want future version accepted", future, err)
	}
}

// FuzzParseTraceparent holds the package's one network-facing parser to its
// contract on any bytes: it never panics, an accepted header's trace-id and
// parent-id fields are exactly what FormatTraceparent renders for the parsed
// IDs (so the echoed header matches the client's byte for byte), and that
// rendering parses back to the same identity. The version field is not
// compared: a future version is accepted and answered as 00.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-whatever")
	for _, h := range malformedTraceparents {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, sampled, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		out := FormatTraceparent(tid, sid, sampled)
		if out[3:52] != h[3:52] {
			t.Fatalf("ParseTraceparent(%q) accepted; FormatTraceparent renders the IDs as %q", h, out)
		}
		tid2, sid2, sampled2, err := ParseTraceparent(out)
		if err != nil || tid2 != tid || sid2 != sid || sampled2 != sampled {
			t.Fatalf("re-parse of %q = (%s, %s, %v, %v), want (%s, %s, %v)", out, tid2, sid2, sampled2, err, tid, sid, sampled)
		}
	})
}

func TestSpanTraceIdentityInheritance(t *testing.T) {
	withTracing(t, TracingConfig{})
	ctx, root := StartSpan(context.Background(), "root")
	if root.TraceID().IsZero() || root.SpanID().IsZero() {
		t.Fatal("root span has zero identity")
	}
	_, child := StartSpan(ctx, "child")
	grand := child.StartChild("grandchild")
	if child.TraceID() != root.TraceID() || grand.TraceID() != root.TraceID() {
		t.Error("descendants do not share the root's trace ID")
	}
	if child.parentID != root.SpanID() {
		t.Errorf("child parent = %s, want %s", child.parentID, root.SpanID())
	}
	if grand.parentID != child.SpanID() {
		t.Errorf("grandchild parent = %s, want %s", grand.parentID, child.SpanID())
	}
	if got := SpanFromContext(ctx); got != root {
		t.Error("SpanFromContext did not return the context's span")
	}
	grand.End()
	child.End()
	root.End()
	snap := root.Snapshot()
	if snap.TraceID != root.TraceID().String() || len(snap.Children) != 1 || len(snap.Children[0].Children) != 1 {
		t.Errorf("snapshot tree shape wrong: %+v", snap)
	}
}

func TestRemoteTraceJoinsAndForcesKeep(t *testing.T) {
	// SampleRate 0: only the forced flag can keep this healthy trace.
	withTracing(t, TracingConfig{SampleRate: 0})
	tid, parent := NewTraceID(), NewSpanID()
	ctx := ContextWithRemoteTrace(context.Background(), tid, parent, true)
	_, span := StartSpan(ctx, "server/query")
	if span.TraceID() != tid {
		t.Fatalf("span trace ID = %s, want remote %s", span.TraceID(), tid)
	}
	if span.parentID != parent {
		t.Fatalf("span parent = %s, want remote caller %s", span.parentID, parent)
	}
	span.End()
	rec, ok := KeptTrace(tid.String())
	if !ok {
		t.Fatal("remotely sampled trace was not kept")
	}
	if rec.Verdict != "forced" {
		t.Errorf("verdict = %q, want forced", rec.Verdict)
	}
	if rec.Root.ParentID != parent.String() {
		t.Errorf("exported root parent = %q, want %q (stitches to caller)", rec.Root.ParentID, parent)
	}
}

func TestTailSamplingVerdicts(t *testing.T) {
	withTracing(t, TracingConfig{SampleRate: 1, SlowThreshold: 5 * time.Millisecond})

	run := func(name string, f func(s *Span)) string {
		_, s := StartSpan(context.Background(), name)
		if f != nil {
			f(s)
		}
		s.End()
		rec, ok := KeptTrace(s.TraceID().String())
		if !ok {
			t.Fatalf("%s: trace not kept", name)
		}
		return rec.Verdict
	}

	if v := run("err", func(s *Span) { s.StartChild("c").MarkError("boom") }); v != "error" {
		t.Errorf("error in subtree: verdict %q, want error", v)
	}
	if v := run("deg", func(s *Span) { s.MarkDegraded("breaker") }); v != "degraded" {
		t.Errorf("degraded: verdict %q, want degraded", v)
	}
	if v := run("slow", func(s *Span) { time.Sleep(6 * time.Millisecond) }); v != "slow" {
		t.Errorf("slow: verdict %q, want slow", v)
	}
	if v := run("healthy", nil); v != "sampled" {
		t.Errorf("healthy at rate 1: verdict %q, want sampled", v)
	}

	// Error outranks degraded outranks slow when a trace qualifies for all.
	if v := run("all", func(s *Span) {
		s.MarkDegraded("rows")
		s.MarkError("boom")
		time.Sleep(6 * time.Millisecond)
	}); v != "error" {
		t.Errorf("error+degraded+slow: verdict %q, want error", v)
	}

	// Healthy traces at rate 0 are dropped.
	ConfigureTracing(TracingConfig{SampleRate: 0})
	before := Default().Counter("obs/trace/dropped").Value()
	_, s := StartSpan(context.Background(), "dropped")
	s.End()
	if _, ok := KeptTrace(s.TraceID().String()); ok {
		t.Error("healthy trace kept at sample rate 0")
	}
	if got := Default().Counter("obs/trace/dropped").Value(); got != before+1 {
		t.Errorf("dropped counter = %d, want %d", got, before+1)
	}
}

func TestSlowQueryLogAggregates(t *testing.T) {
	withTracing(t, TracingConfig{SampleRate: 1})
	const sql = "SELECT * FROM title WHERE rating > 7"
	for i := 0; i < 3; i++ {
		_, s := StartSpan(context.Background(), "server/query")
		s.Annotate("sql", sql)
		if i == 2 {
			s.MarkError("boom")
		}
		s.End()
	}
	stats := SlowQueries()
	if len(stats) != 1 {
		t.Fatalf("SlowQueries len = %d, want 1", len(stats))
	}
	e := stats[0]
	if e.SQL != sql || e.Count != 3 || e.Errors != 1 {
		t.Errorf("stats = %+v, want sql=%q count=3 errors=1", e, sql)
	}
	if e.LastTraceID == "" {
		t.Error("LastTraceID empty: cannot jump from slow-query log to trace")
	}
	if _, ok := KeptTrace(e.LastTraceID); !ok {
		t.Error("LastTraceID does not resolve to a kept trace")
	}
}

// TestSlowQueryRowsResolve: the slow-query log is read off the kept-trace ring,
// so after more roots than the ring holds every row's trace still opens, and
// the rows account for exactly the kept traces that carry a statement.
func TestSlowQueryRowsResolve(t *testing.T) {
	withTracing(t, TracingConfig{SampleRate: 1})
	for i := 0; i < 2*maxKeptTraces; i++ {
		_, s := StartSpan(context.Background(), "server/query")
		if i%3 != 0 {
			s.Annotate("sql", "SELECT * FROM title WHERE id = "+strconv.Itoa(i))
		}
		s.End()
	}
	withSQL := 0
	for _, rec := range KeptTraces() {
		if sql, _ := rec.Root.Attrs["sql"].(string); sql != "" {
			withSQL++
		}
	}
	var counted int64
	for _, q := range SlowQueries() {
		counted += q.Count
		if _, ok := KeptTrace(q.LastTraceID); !ok {
			t.Errorf("row %q: last_trace_id %s does not resolve to a kept trace", q.SQL, q.LastTraceID)
		}
	}
	if withSQL == 0 || counted != int64(withSQL) {
		t.Errorf("slow-query rows count %d traces, the ring keeps %d with sql", counted, withSQL)
	}
}

func TestJSONLExporterRotationBounds(t *testing.T) {
	dir := t.TempDir()
	exp, err := newJSONLExporter(dir, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := TraceRecord{TraceID: strings.Repeat("ab", 16), Verdict: "error",
		Root: SpanSnapshot{Name: "server/query", Attrs: map[string]any{"sql": "SELECT 1"}}}
	for i := 0; i < 50; i++ {
		if err := exp.ExportTrace(rec); err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "traces-*.jsonl"))
	if len(files) == 0 || len(files) > 2 {
		t.Fatalf("got %d files %v, want 1..2 (retention)", len(files), files)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var got TraceRecord
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: bad JSONL line %q: %v", f, line, err)
			}
			if got.TraceID != rec.TraceID {
				t.Fatalf("%s: trace ID %q, want %q", f, got.TraceID, rec.TraceID)
			}
		}
	}
	if err := exp.ExportTrace(rec); err == nil {
		t.Error("export after Close succeeded, want error")
	}
	// A new exporter in the same directory continues the sequence instead of
	// clobbering history.
	exp2, err := newJSONLExporter(dir, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer exp2.Close()
	files2, _ := filepath.Glob(filepath.Join(dir, "traces-*.jsonl"))
	if len(files2) > 2 {
		t.Errorf("after reopen: %d files, want ≤2", len(files2))
	}
}

// TestSnapshotDuringActiveSubtree hammers Snapshot while children are being
// added, annotated, and ended concurrently. Run with -race: the point is that
// per-span locking makes mid-flight snapshots safe. The workers are bounded by
// iteration count, not by how long the snapshots take, so the test does the
// same work on any core count.
func TestSnapshotDuringActiveSubtree(t *testing.T) {
	withTracing(t, TracingConfig{})
	_, root := StartSpan(context.Background(), "root")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c := root.StartChild("child")
				c.Annotate("i", i)
				c.Event("tick", "worker", w)
				g := c.StartChild("grand")
				g.MarkError("x")
				g.End()
				c.End()
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		snap := root.Snapshot()
		if snap.Name != "root" {
			t.Errorf("snapshot name %q", snap.Name)
			break
		}
	}
	wg.Wait()
	root.End()
	if err, _ := root.status(); err != "x" {
		t.Errorf("status error = %q, want propagated child error", err)
	}
}

// TestSpanChildrenCapped: a span keeps at most maxSpanChildren children however
// many are started under it, through either StartChild or a context, and
// reports the rest as children_dropped; a dropped child is still a usable span
// of the same trace.
func TestSpanChildrenCapped(t *testing.T) {
	withTracing(t, TracingConfig{})
	ctx, root := StartSpan(context.Background(), "root")
	const extra = 40
	var last *Span
	for i := 0; i < maxSpanChildren+extra; i++ {
		if i%2 == 0 {
			last = root.StartChild("child")
		} else {
			_, last = StartSpan(ctx, "child")
		}
		last.Annotate("i", i)
		if i == maxSpanChildren+extra-1 {
			// The outcome of a dropped child's subtree must still reach the root.
			last.MarkDegraded("rows")
			grandchild := last.StartChild("grandchild")
			grandchild.MarkError("boom")
			grandchild.End()
		}
		last.End()
	}
	if last.TraceID() != root.TraceID() || last.Snapshot().ParentID != root.SpanID().String() {
		t.Errorf("dropped child lost its trace identity: %+v", last.Snapshot())
	}
	root.End()
	snap := root.Snapshot()
	if len(snap.Children) != maxSpanChildren || snap.ChildrenDropped != extra {
		t.Errorf("children = %d, children_dropped = %d; want %d and %d",
			len(snap.Children), snap.ChildrenDropped, maxSpanChildren, extra)
	}
	data, err := json.Marshal(snap)
	if err != nil || !bytes.Contains(data, []byte(`"children_dropped":40`)) {
		t.Errorf("children_dropped not in the JSON snapshot (err %v)", err)
	}
	if snap.Error != "boom" || snap.Degraded != "rows" {
		t.Errorf("root error = %q, degraded = %q after a dropped child failed; want boom and rows", snap.Error, snap.Degraded)
	}
	if rec, ok := KeptTrace(root.TraceID().String()); !ok || rec.Verdict != "error" {
		t.Errorf("tail sampler verdict for a trace whose dropped child failed = %+v (kept %v), want error", rec.Verdict, ok)
	}
}

func TestDisabledTracingZeroAlloc(t *testing.T) {
	wasEnabled := Enabled()
	SetEnabled(false)
	t.Cleanup(func() { SetEnabled(wasEnabled) })
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, s := StartSpan(ctx, "server/query")
		s.Annotate("sql", "SELECT 1")
		s.Event("shed", "cause", "draining")
		child := s.StartChild("engine/execute")
		child.MarkError("x")
		child.End()
		_ = SpanFromContext(c)
		s.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %v per request, want 0", allocs)
	}
}

func BenchmarkTraceExport(b *testing.B) {
	exp, err := NewJSONLExporter(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer exp.Close()
	rec := TraceRecord{
		TraceID: NewTraceID().String(), Verdict: "sampled", DurationMS: 1.25,
		Root: SpanSnapshot{
			Name:  "server/query",
			Attrs: map[string]any{"sql": "SELECT * FROM title WHERE rating > 7"},
			Children: []SpanSnapshot{{Name: "core/query", Children: []SpanSnapshot{
				{Name: "core/rung/approx", Children: []SpanSnapshot{{Name: "engine/execute"}}},
			}}},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp.ExportTrace(rec); err != nil {
			b.Fatal(err)
		}
	}
}
