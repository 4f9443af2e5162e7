package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

func TestU64TableNumbersKeysAsTheyAppear(t *testing.T) {
	tab := newU64table()
	const n = 5000 // grows from 64 slots several times over
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			k := uint64(i) * 0x1_0000_0001 // both halves vary, and 0 is a key
			if got := tab.id(k); got != int32(i) {
				t.Fatalf("round %d: key %d numbered %d", round, i, got)
			}
		}
	}
	if tab.next() != n {
		t.Fatalf("next number is not %d", n)
	}
}

// aggDB is one table g covering every key encoding: s (dictionary, with NULL),
// small (int offsets), wide (ints spanning more than 2^31: hashed), f (floats:
// 0 and -0, NaN twice, NULL), bl (bools with NULL), v (the argument), and two
// 300-value keys a and b whose pairs are too many to address directly.
func aggDB(n int) *table.Database {
	g := table.New("g", table.Schema{
		{Name: "s", Kind: table.KindString}, {Name: "small", Kind: table.KindInt}, {Name: "wide", Kind: table.KindInt},
		{Name: "f", Kind: table.KindFloat}, {Name: "bl", Kind: table.KindBool}, {Name: "v", Kind: table.KindInt},
		{Name: "a", Kind: table.KindInt}, {Name: "b", Kind: table.KindInt},
	})
	strs := []table.Value{table.NewString("zeta"), table.Null, table.NewString("alpha"), table.NewString("mid")}
	floats := []table.Value{
		table.NewFloat(0), table.NewFloat(math.NaN()), table.NewFloat(math.Copysign(0, -1)), table.Null,
		table.NewFloat(math.Float64frombits(0x7ff8000000000123)), table.NewFloat(2.5),
	}
	bools := []table.Value{table.NewBool(true), table.Null, table.NewBool(false)}
	for i := 0; i < n; i++ {
		g.AppendRow(table.Row{
			strs[i%len(strs)], table.NewInt(int64(7 - i%5)), table.NewInt(int64(i%3) << 40),
			floats[i%len(floats)], bools[i%len(bools)], table.NewInt(int64(i)),
			table.NewInt(int64(i % 300)), table.NewInt(int64(i * 7 % 300)),
		})
	}
	db := table.NewDatabase()
	db.Add(g)
	return db
}

// aggSpan runs sql on the columnar engine under a trace and returns its answer
// and the engine/aggregate span.
func aggSpan(t *testing.T, db *table.Database, sql string) (*Result, *obs.SpanSnapshot) {
	t.Helper()
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)
	ctx, root := obs.StartSpan(context.Background(), "test/root")
	res, err := ExecuteWithContext(ctx, db, sqlparse.MustParse(sql), Options{})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	root.End()
	span := findSpan(root.Snapshot(), "engine/aggregate")
	if span == nil {
		t.Fatalf("%s: no engine/aggregate span", sql)
	}
	return res, span
}

// TestGroupNumbering pins pass 1 of the aggregate phase: groups come out in the
// order their first row appears, NULL is a group under every encoding, 0 and -0
// (and every NaN) are one float group, and whether the keys' codes address a
// table or are hashed is chosen from the columns' values and the row count.
func TestGroupNumbering(t *testing.T) {
	const n = 6000
	db := aggDB(n)
	for _, tc := range []struct {
		sql, via string
		keys     []string // the first column of the answer, as Value.String
		explain  string
	}{
		{"SELECT s, COUNT(*) FROM g GROUP BY s", "codes", []string{"zeta", "", "alpha", "mid"}, "(dictionary codes)"},
		{"SELECT small, COUNT(*) FROM g GROUP BY small", "codes", []string{"7", "6", "5", "4", "3"}, "(int offsets)"},
		{"SELECT bl, COUNT(*) FROM g GROUP BY bl", "codes", []string{"true", "", "false"}, "(bools)"},
		{"SELECT wide, COUNT(*) FROM g GROUP BY wide", "hash", []string{"0", "1099511627776", "2199023255552"}, "(hashed ints)"},
		{"SELECT f, COUNT(*) FROM g GROUP BY f", "hash", []string{"0", "NaN", "", "2.5"}, "(hashed floats)"},
		{"SELECT s, bl, COUNT(*) FROM g GROUP BY s, bl", "codes", nil, "(dictionary codes, bools)"},
		// 301 x 301 codes: over four slots per row for 6 000 rows, under it for 60 000.
		{"SELECT a, b, COUNT(*) FROM g GROUP BY a, b", "hash", nil, "(int offsets, int offsets)"},
		{"SELECT f, wide, s, COUNT(*) FROM g GROUP BY f, wide, s", "hash", nil, "(hashed floats, hashed ints, dictionary codes)"},
		{"SELECT small + 1, COUNT(*) FROM g GROUP BY small + 1", "rows", []string{"8", "7", "6", "5", "4"}, "(row keys: expression key)"},
		{"SELECT s, SUM(v * 2) FROM g GROUP BY s", "rows", []string{"zeta", "", "alpha", "mid"}, "(row keys: expression argument)"},
		{"SELECT COUNT(*), MIN(v) FROM g", "codes", []string{fmt.Sprint(n)}, "global aggregate\n"},
	} {
		res, span := aggSpan(t, db, tc.sql)
		if span.Attrs["via"] != tc.via || span.Attrs["rows_in"] != n || span.Attrs["rows_out"] != res.Table.NumRows() {
			t.Errorf("%s: span %v, want via %s, rows_in %d, rows_out %d", tc.sql, span.Attrs, tc.via, n, res.Table.NumRows())
		}
		if groups, typed := span.Attrs["groups"]; typed != (tc.via != "rows") || typed && groups != res.Table.NumRows() {
			t.Errorf("%s: span groups %v, want the %d groups of a typed aggregation only", tc.sql, groups, res.Table.NumRows())
		}
		for i, want := range tc.keys {
			if got := res.Table.Rows[i][0].String(); got != want {
				t.Errorf("%s: group %d is %q, want %q", tc.sql, i, got, want)
			}
		}
		if tc.keys != nil && len(tc.keys) != res.Table.NumRows() {
			t.Errorf("%s: %d groups, want %d", tc.sql, res.Table.NumRows(), len(tc.keys))
		}
		row, err := rowExecute(context.Background(), db, sqlparse.MustParse(tc.sql), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultFingerprint(res), resultFingerprint(row); got != want {
			t.Errorf("%s: columnar\n%.400s\nrow engine\n%.400s", tc.sql, got, want)
		}
		plan, err := Explain(db, sqlparse.MustParse(tc.sql))
		if err != nil || !strings.Contains(plan, tc.explain) {
			t.Errorf("%s: plan %q (%v) does not say %q", tc.sql, plan, err, tc.explain)
		}
	}
	if _, span := aggSpan(t, aggDB(60_000), "SELECT a, b, COUNT(*) FROM g GROUP BY a, b"); span.Attrs["via"] != "codes" {
		t.Errorf("90 601 codes over 60 000 rows went via %v, want codes", span.Attrs["via"])
	}
}

// TestAggregateFallbackCounter: the byte-key loop, and only it, counts itself.
func TestAggregateFallbackCounter(t *testing.T) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)
	db, c := aggDB(100), obs.Default().Counter(metricAggregateFallback)
	for sql, want := range map[string]int64{
		"SELECT s, SUM(v) FROM g GROUP BY s":     0,
		"SELECT s, SUM(v + 1) FROM g GROUP BY s": 1,
	} {
		before := c.Value()
		if _, err := ExecuteWith(db, sqlparse.MustParse(sql), Options{}); err != nil {
			t.Fatal(err)
		}
		if got := c.Value() - before; got != want {
			t.Errorf("%s: %s grew by %d, want %d", sql, metricAggregateFallback, got, want)
		}
	}
}

// aggInput plans sql and runs its scan and join, returning what the aggregate
// operators take: the same tuples as a batch and as joined rows.
func aggInput(t testing.TB, db *table.Database, sql string) (*binder, *sqlparse.Select, *joinedBatch, []joinedRow) {
	t.Helper()
	b, stmt, preds := bindSQL(t, db, sql)
	jb, err := runJoinsCol(b, preds, Options{MaxIntermediateRows: defaultMaxIntermediate}, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	joined := make([]joinedRow, jb.n)
	for i := range joined {
		joined[i] = make(joinedRow, len(jb.cols))
		for rel, col := range jb.cols {
			joined[i][rel] = col[i]
		}
	}
	return b, stmt, jb, joined
}

// TestAggregateAllocsFollowGroups: a typed aggregation allocates for its plan,
// its groups and its answer — nothing per joined row, so ten times the rows in
// the same groups allocate the same (give or take the scratch vectors, which
// the race detector makes sync.Pool drop at random).
func TestAggregateAllocsFollowGroups(t *testing.T) {
	const sql = "SELECT s, small, COUNT(*), SUM(v), AVG(f), MIN(v), MAX(s) FROM g GROUP BY s, small"
	allocs := func(n int) float64 {
		b, stmt, jb, _ := aggInput(t, aggDB(n), sql)
		return testing.AllocsPerRun(10, func() {
			if out, err := aggregateCol(b, stmt, jb, nil, nil); err != nil || out.NumRows() != 20 {
				t.Fatalf("%v rows, %v; want 20 groups", out, err)
			}
		})
	}
	small, big := allocs(4_000), allocs(40_000)
	if math.Abs(small-big) > 2 || big > 120 {
		t.Fatalf("aggregating 4 000 rows allocates %v times, 40 000 rows %v times; want the same, at most 120", small, big)
	}
}

// countdownCtx expires after its Err has answered nil left times: a deadline
// that trips at a chosen poll of the guard.
type countdownCtx struct {
	context.Context
	left *int
}

func (c countdownCtx) Err() error {
	if *c.left == 0 {
		return context.DeadlineExceeded
	}
	*c.left--
	return nil
}

// TestAggregateDeadlineMidway: the typed aggregation polls the guard once per
// guardInterval rows, like the row loop, so a deadline that expires at the k-th
// poll stops both with the same error — at every poll the batch is long enough
// for, typed or row at a time — and one past the last stops neither.
func TestAggregateDeadlineMidway(t *testing.T) {
	const n = 5*guardInterval + 100
	db := aggDB(n)
	for _, sql := range []string{
		"SELECT s, COUNT(*), AVG(v) FROM g GROUP BY s",
		"SELECT f, wide, MIN(v) FROM g GROUP BY f, wide",
		"SELECT s, SUM(v + 1) FROM g GROUP BY s",
	} {
		b, stmt, jb, joined := aggInput(t, db, sql)
		for polls := 0; polls <= n/guardInterval; polls++ {
			run := func(col bool) (*table.RowSet, error) {
				left := polls
				g := newGuard(countdownCtx{context.Background(), &left}, Options{})
				if col {
					return aggregateCol(b, stmt, jb, g, nil)
				}
				return aggregate(b, stmt, joined, g)
			}
			want, wantErr := run(false)
			got, gotErr := run(true)
			if expired := polls < n/guardInterval; expired != errors.Is(wantErr, ErrDeadline) {
				t.Fatalf("%s: row engine after %d polls: %v", sql, polls, wantErr)
			}
			if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
				t.Fatalf("%s: after %d polls the row engine ends in %v, the columnar one in %v", sql, polls, wantErr, gotErr)
			}
			if wantErr == nil && resultFingerprint(&Result{Table: want}) != resultFingerprint(&Result{Table: got}) {
				t.Fatalf("%s: answers differ", sql)
			}
		}
	}
}
