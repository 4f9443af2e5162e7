package core

import (
	"context"
	"testing"

	"asqprl/internal/obs"
)

// TestQueryFrameContextMatchesTable: the frame entry point runs the same
// ladder as QueryStmtContext and differs only in the form of the answer — on
// the approximation rung, on the full rung, and for the partial rows of a
// row-budget trip served degraded.
func TestQueryFrameContextMatchesTable(t *testing.T) {
	sys := trainedSystem(t)
	for _, tc := range []struct {
		sql  string
		opts QueryOptions
	}{
		{"SELECT * FROM title WHERE rating > 7 LIMIT 5", QueryOptions{}},
		{"SELECT * FROM name WHERE birth_year > 1800", QueryOptions{}},
		{"SELECT * FROM name WHERE birth_year > 1800 LIMIT 2", QueryOptions{MaxRows: 3}},
		{"SELECT kind, COUNT(*) FROM title GROUP BY kind", QueryOptions{}},
	} {
		stmt := mustParseCore(t, tc.sql)
		want, err := sys.QueryStmtContext(context.Background(), stmt, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		got, err := sys.QueryFrameContext(context.Background(), stmt, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got.Table != nil || got.Frame == nil || want.Frame != nil {
			t.Fatalf("%s: frame call answered table %v frame %v; table call frame %v", tc.sql, got.Table, got.Frame, want.Frame)
		}
		if got.FromApproximation != want.FromApproximation || got.Degraded != want.Degraded || got.DegradedReason != want.DegradedReason {
			t.Errorf("%s: frame call routed %+v, table call %+v", tc.sql, got, want)
		}
		rows := got.Frame.Table().Rows
		if len(rows) != want.Table.NumRows() {
			t.Fatalf("%s: frame holds %d rows, table %d", tc.sql, len(rows), want.Table.NumRows())
		}
		for i, r := range rows {
			if r.Key() != want.Table.Rows[i].Key() {
				t.Fatalf("%s: row %d differs: %v vs %v", tc.sql, i, r, want.Table.Rows[i])
			}
		}
	}
}

// TestQuerySpanCarriesCanonicalSQL: the ladder hands its span the statement's
// String method rather than the rendered text, so a request whose trace nobody
// reads never canonicalizes; a snapshot (what /tracez and the JSONL export
// show) must still carry the canonical SQL as a string.
func TestQuerySpanCarriesCanonicalSQL(t *testing.T) {
	keepEveryTrace(t)
	sys := trainedSystem(t)
	stmt := mustParseCore(t, "select  *  from title where rating>7")
	if _, err := sys.QueryStmtContext(context.Background(), stmt, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range obs.KeptTraces() {
		if s := rec.Root; s.Name == "core/query" {
			if got, want := s.Attrs["sql"], any(stmt.String()); got != want {
				t.Fatalf("core/query sql attribute = %#v, want %#v", got, want)
			}
			return
		}
	}
	t.Fatal("no core/query root span recorded")
}
