package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// withObs enables observability for one test and restores the previous
// global state afterwards.
func withObs(t *testing.T) {
	t.Helper()
	prev := Enabled()
	SetEnabled(true)
	ResetTraces()
	t.Cleanup(func() {
		SetEnabled(prev)
		ResetTraces()
	})
}

func TestHistogramQuantileConcurrent(t *testing.T) {
	h := NewHistogram()
	const (
		workers = 8
		perW    = 2000
	)
	// Uniform values in (0, 2] seconds, interleaved across workers.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				v := float64(w*perW+i+1) / float64(workers*perW) * 2
				h.Observe(v)
			}
		}(w)
	}
	wg.Wait()

	if got, want := h.Count(), int64(workers*perW); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	// Sum of a uniform grid over (0, 2]: n * (max + step) / 2.
	wantSum := float64(workers*perW) * (2 + 2.0/float64(workers*perW)) / 2
	if got := h.Sum(); got < wantSum*0.999 || got > wantSum*1.001 {
		t.Fatalf("Sum = %f, want ~%f", got, wantSum)
	}
	// Exponential buckets bound the quantile error by one bucket width (2x).
	checks := []struct{ q, want float64 }{{0.5, 1.0}, {0.9, 1.8}, {0.99, 1.98}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("Quantile(%v) = %f, want within 2x of %f", c.q, got, c.want)
		}
	}
	if got := h.Min(); got <= 0 || got > 0.01 {
		t.Errorf("Min = %f, want small positive", got)
	}
	if got := h.Max(); got != 2 {
		t.Errorf("Max = %f, want 2", got)
	}
}

func TestHistogramEmptyAndSnapshot(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.ObserveDuration(5 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 || s.Mean <= 0 || s.P50 <= 0 {
		t.Fatalf("snapshot after one observation: %+v", s)
	}
}

func TestSpanTreeNestingAndOrdering(t *testing.T) {
	withObs(t)
	// Tracing unconfigured: a finished root span is retained nowhere.
	_, loose := StartSpan(context.Background(), "unkept")
	loose.End()
	if n := len(KeptTraces()); n != 0 {
		t.Fatalf("%d traces kept with tracing unconfigured, want 0", n)
	}
	// SampleRate 1 keeps every tree, whole.
	withTracing(t, TracingConfig{SampleRate: 1})
	ctx, root := StartSpan(context.Background(), "preprocess")
	root.Annotate("k", 100)
	_, relax := StartSpan(ctx, "preprocess/relax")
	relax.End()
	execCtx, exec := StartSpan(ctx, "preprocess/execute")
	_, q0 := StartSpan(execCtx, "query-0")
	q0.End()
	exec.End()
	root.End()

	kept := KeptTraces()
	if len(kept) != 1 {
		t.Fatalf("got %d kept traces, want 1", len(kept))
	}
	tree := kept[0].Root
	if tree.Name != "preprocess" {
		t.Fatalf("root name = %q", tree.Name)
	}
	if tree.Attrs["k"] != 100 {
		t.Fatalf("root attrs = %v", tree.Attrs)
	}
	if len(tree.Children) != 2 ||
		tree.Children[0].Name != "preprocess/relax" ||
		tree.Children[1].Name != "preprocess/execute" {
		t.Fatalf("children wrong: %+v", tree.Children)
	}
	if len(tree.Children[1].Children) != 1 || tree.Children[1].Children[0].Name != "query-0" {
		t.Fatalf("grandchildren wrong: %+v", tree.Children[1].Children)
	}
	if tree.DurationMS < tree.Children[1].DurationMS {
		t.Fatalf("parent duration %f < child duration %f", tree.DurationMS, tree.Children[1].DurationMS)
	}
}

// TestAnnotateLastWriteWins: a key written again keeps one attribute with the
// last value, whether it was written whole (Annotate) or as a prefix and a
// name (AnnotateNamed), split the same way or not, past the four attributes a
// span holds in place; a lazy value renders at snapshot.
func TestAnnotateLastWriteWins(t *testing.T) {
	withObs(t)
	_, s := StartSpan(context.Background(), "attrs")
	s.Annotate("rows/title", 1)
	s.AnnotateNamed("rows/", "title", 2)
	s.AnnotateNamed("rows/t", "itle", 3)
	s.AnnotateNamed("rows/", "name", 4)
	s.Annotate("plan", func() string { return "scan1" })
	for i := range 6 {
		s.AnnotateNamed("k", string(rune('a'+i)), i)
	}
	s.Annotate("rows/name", 5)
	s.End()
	snap := s.Snapshot()
	want := map[string]any{"rows/title": 3, "rows/name": 5, "plan": "scan1", "ka": 0, "kb": 1, "kc": 2, "kd": 3, "ke": 4, "kf": 5}
	if len(snap.Attrs) != len(want) || len(s.attrs) != len(want) {
		t.Fatalf("attrs = %v (%d held), want %v", snap.Attrs, len(s.attrs), want)
	}
	for k, v := range want {
		if snap.Attrs[k] != v {
			t.Errorf("attrs[%q] = %v, want %v", k, snap.Attrs[k], v)
		}
	}
}

// TestTypedAnnotationsRenderAsBoxed: a string, int64, float64 or Stringer
// annotated through its typed method snapshots to the same value, and the
// same JSON, as Annotate with the boxed value (the Stringer as its String
// method); a typed value overwrites a boxed one under the same key and back;
// and annotating a typed value allocates nothing.
func TestTypedAnnotationsRenderAsBoxed(t *testing.T) {
	withObs(t)
	stmt := &stringer{"SELECT 1"} // a pointer, as a parsed statement is
	_, typed := StartSpan(context.Background(), "typed")
	typed.Annotate("s", 0)
	typed.AnnotateString("s", "POST")
	typed.AnnotateInt("i", -7)
	typed.AnnotateFloat("f", 0.25)
	typed.AnnotateStringer("sql", stmt)
	typed.AnnotateFloat("over", 1)
	typed.Annotate("over", "boxed")
	_, boxed := StartSpan(context.Background(), "typed")
	boxed.Annotate("s", "POST")
	boxed.Annotate("i", int64(-7))
	boxed.Annotate("f", 0.25)
	boxed.Annotate("sql", stmt.String)
	boxed.Annotate("over", "boxed")
	typed.End()
	boxed.End()
	got, want := typed.Snapshot().Attrs, boxed.Snapshot().Attrs
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if len(got) != len(want) || !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("typed attrs %s, boxed %s", gotJSON, wantJSON)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("attrs[%q] = %#v, want %#v", k, got[k], v)
		}
	}
	_, s := StartSpan(context.Background(), "allocs")
	method := string([]byte("GET"))
	if n := testing.AllocsPerRun(100, func() {
		s.AnnotateString("method", method)
		s.AnnotateInt("generation", 1<<40)
		s.AnnotateFloat("confidence", 0.875)
		s.AnnotateStringer("sql", stmt)
	}); n != 0 {
		t.Fatalf("typed annotations allocate %v objects, want 0", n)
	}
	s.End()
}

// stringer is a fmt.Stringer for the annotation tests.
type stringer struct{ s string }

func (s *stringer) String() string { return s.s }

func TestSpanDisabledIsNoop(t *testing.T) {
	withTracing(t, TracingConfig{SampleRate: 1})
	SetEnabled(false)
	ctx, s := StartSpan(context.Background(), "x")
	if s != nil {
		t.Fatal("disabled StartSpan must return a nil span")
	}
	s.End()            // must not panic
	s.Annotate("a", 1) // must not panic
	if s.Duration() != 0 {
		t.Fatal("nil span duration must be 0")
	}
	if _, child := StartSpan(ctx, "y"); child != nil {
		t.Fatal("child of disabled span must be nil")
	}
	if len(KeptTraces()) != 0 {
		t.Fatal("no spans should be recorded while disabled")
	}
}

func TestRegistryConcurrentAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["c"] != 4000 {
		t.Fatalf("counter = %d, want 4000", snap.Counters["c"])
	}
	if snap.Histograms["h"].Count != 4000 {
		t.Fatalf("histogram count = %d, want 4000", snap.Histograms["h"].Count)
	}
}

func TestLoggerDefaultIsNoop(t *testing.T) {
	setLogger(nil)
	l := Logger()
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("default logger must be disabled at every level")
	}
	l.Info("should go nowhere", "k", "v")

	var buf bytes.Buffer
	EnableLogging(&buf, slog.LevelInfo)
	defer setLogger(nil)
	Logger().Info("hello", "dataset", "imdb", "k", 100)
	if got := buf.String(); got == "" || !bytes.Contains(buf.Bytes(), []byte("dataset=imdb")) {
		t.Fatalf("structured log missing fields: %q", got)
	}
	Logger().Debug("filtered")
	if bytes.Contains(buf.Bytes(), []byte("filtered")) {
		t.Fatal("debug line should be filtered at info level")
	}
}

func TestDebugHandlerEndpoints(t *testing.T) {
	withTracing(t, TracingConfig{SampleRate: 1})
	Default().Counter("test/hits").Inc()
	_, sp := StartSpan(context.Background(), "test/root")
	sp.End()

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	var snap Snapshot
	getJSON(t, srv.URL+"/metrics", &snap)
	if snap.Counters["test/hits"] < 1 {
		t.Fatalf("metrics snapshot missing counter: %+v", snap.Counters)
	}

	var rec TraceRecord
	getJSON(t, srv.URL+"/tracez?trace="+sp.TraceID().String(), &rec)
	if rec.Root.Name != "test/root" || rec.Verdict != "sampled" {
		t.Fatalf("tracez endpoint returned %+v, want the sampled test/root tree", rec)
	}

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %v status=%v", err, resp)
	}
	resp.Body.Close()
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}
