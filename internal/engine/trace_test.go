package engine

import (
	"context"
	"testing"

	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
)

// findSpan returns the first span named name in the snapshot tree.
func findSpan(snap obs.SpanSnapshot, name string) *obs.SpanSnapshot {
	if snap.Name == name {
		return &snap
	}
	for _, c := range snap.Children {
		if got := findSpan(c, name); got != nil {
			return got
		}
	}
	return nil
}

func TestOperatorSpansUnderTracedContext(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(wasEnabled) })

	ctx, root := obs.StartSpan(context.Background(), "test/root")
	stmt := sqlparse.MustParse(
		"SELECT m.title, c.person FROM movies m JOIN credits c ON m.id = c.movie_id WHERE m.rating > 7")
	res, plan, err := PlannedContext(ctx, testDB(), stmt, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	snap := root.Snapshot()

	exec := findSpan(snap, "engine/execute")
	if exec == nil {
		t.Fatalf("no engine/execute span under traced context: %+v", snap)
	}
	if exec.TraceID != root.TraceID().String() {
		t.Errorf("engine span trace ID %s, want root's %s", exec.TraceID, root.TraceID())
	}
	if shape, _ := exec.Attrs["plan"].(string); shape == "" || shape != plan.Shape() {
		t.Errorf("engine/execute plan annotation %q, want the execution's shape %q", shape, plan.Shape())
	}
	if rows, _ := exec.Attrs["rows_out"].(int); rows != res.Table.NumRows() {
		t.Errorf("engine/execute rows_out = %v, want %d", exec.Attrs["rows_out"], res.Table.NumRows())
	}

	scan := findSpan(snap, "engine/scan")
	if scan == nil {
		t.Fatal("no engine/scan span")
	}
	// Per-relation row counts are keyed by binding name (the alias).
	for _, rel := range []string{"rows/m", "rows/c"} {
		if _, ok := scan.Attrs[rel]; !ok {
			t.Errorf("engine/scan missing %s row count; attrs %v", rel, scan.Attrs)
		}
	}
	join := findSpan(snap, "engine/join")
	if join == nil {
		t.Fatal("no engine/join span")
	}
	if _, ok := join.Attrs["rows_out"]; !ok {
		t.Errorf("engine/join missing rows_out; attrs %v", join.Attrs)
	}
	if proj := findSpan(snap, "engine/project"); proj == nil {
		t.Error("no engine/project span")
	}
}

// TestFailedExecutionSpanNamesPlan: a statement that bound but failed while
// executing, leaving no result, still names its plan on engine/execute.
func TestFailedExecutionSpanNamesPlan(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(wasEnabled) })

	ctx, root := obs.StartSpan(context.Background(), "test/root")
	stmt := sqlparse.MustParse("SELECT m.title FROM movies m, credits c")
	res, err := ExecuteWithContext(ctx, testDB(), stmt, Options{MaxIntermediateRows: 1})
	root.End()
	if err == nil || res != nil {
		t.Fatalf("cross join under a one-row intermediate budget = (%v, %v), want an error and no result", res, err)
	}
	exec := findSpan(root.Snapshot(), "engine/execute")
	if exec == nil {
		t.Fatal("no engine/execute span")
	}
	if shape, _ := exec.Attrs["plan"].(string); shape != "scan2-cross1" {
		t.Errorf("failed execution's plan annotation = %q, want scan2-cross1", shape)
	}
}

// TestUntracedContextCreatesNoSpans guards the training/scoring hot loop:
// without a span in the context, execution must not open spans even when
// observability is enabled.
func TestUntracedContextCreatesNoSpans(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.ConfigureTracing(obs.TracingConfig{SampleRate: 1})
	obs.ResetTraces()
	t.Cleanup(func() {
		obs.DisableTracing()
		obs.ResetTraces()
		obs.SetEnabled(wasEnabled)
	})
	stmt := sqlparse.MustParse("SELECT title FROM movies WHERE year > 2000")
	if _, err := ExecuteWithContext(context.Background(), testDB(), stmt, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := len(obs.KeptTraces()); got != 0 {
		t.Errorf("untraced execution published %d root spans, want 0", got)
	}
}
