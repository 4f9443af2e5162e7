package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"asqprl/internal/datagen"
	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// TestMorselsSkippedCounter pins the zone-map pruning telemetry: on a sorted
// column, a selective range predicate must skip exactly the morsels whose
// zone cannot satisfy it, and the engine/morsels_skipped counter must record
// them (only when observability is enabled).
func TestMorselsSkippedCounter(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	tbl := table.New("sorted", table.Schema{{Name: "v", Kind: table.KindInt}})
	n := 8 * table.ZoneChunkRows
	for i := 0; i < n; i++ {
		tbl.AppendRow(table.Row{table.NewInt(int64(i))})
	}
	db := table.NewDatabase()
	db.Add(tbl)
	// Chunks 0..5 top out at 6*ZoneChunkRows-1 < 7000 ≤ values in chunk 6, so
	// exactly 6 of the 8 morsels are prunable.
	stmt := sqlparse.MustParse("SELECT * FROM sorted WHERE v >= 7000")

	obs.SetEnabled(true)
	obs.Default().Reset()
	res, err := ExecuteWith(db, stmt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := n - 7000; res.Table.NumRows() != want {
		t.Fatalf("rows = %d, want %d", res.Table.NumRows(), want)
	}
	on := obs.Default().Snapshot().Counters
	if on[metricMorselsSkipped] != 6 || on[metricScanRowsRead] == 0 {
		t.Fatalf("%s = %d, want 6; %s = %d, want > 0", metricMorselsSkipped, on[metricMorselsSkipped], metricScanRowsRead, on[metricScanRowsRead])
	}

	// Disabled observability records nothing even though the scan still runs:
	// the handles are held either way, the switch is read inside them.
	obs.SetEnabled(false)
	obs.Default().Reset()
	if _, err := ExecuteWith(db, stmt, Options{}); err != nil {
		t.Fatal(err)
	}
	off := obs.Default().Snapshot().Counters
	if off[metricMorselsSkipped] != 0 || off[metricScanRowsRead] != 0 {
		t.Fatalf("disabled observability recorded %d skipped morsels, %d rows read", off[metricMorselsSkipped], off[metricScanRowsRead])
	}
	obs.Default().Reset()
}

// TestColumnarCountFastPath checks that CountContext — which takes the
// count-only columnar path that materializes no output columns — agrees with
// the row engine on filter, join, residual and unfiltered shapes.
func TestColumnarCountFastPath(t *testing.T) {
	db := testDB()
	for _, sql := range []string{
		"SELECT * FROM movies",
		"SELECT * FROM movies WHERE year > 2000",
		"SELECT m.title FROM movies m JOIN credits c ON m.id = c.movie_id",
		"SELECT m.title FROM movies m JOIN credits c ON m.id = c.movie_id WHERE c.role = 'director'",
		// A residual at the last join step reads columns the count itself does not.
		"SELECT m.id FROM movies m JOIN credits c ON m.id = c.movie_id WHERE m.year + c.movie_id > 2000",
	} {
		stmt := sqlparse.MustParse(sql)
		rowN, err := rowCount(context.Background(), db, stmt, Options{})
		if err != nil {
			t.Fatalf("%s (row): %v", sql, err)
		}
		colN, err := CountContext(context.Background(), db, stmt, Options{})
		if err != nil {
			t.Fatalf("%s (columnar): %v", sql, err)
		}
		if rowN != colN {
			t.Errorf("%s: row count %d != columnar count %d", sql, rowN, colN)
		}
	}
}

// TestColumnarNaNComparisonParity is the regression test for the NaN corner
// of the vectorized comparison kernels: Value.Compare treats NaN as equal to
// everything (it returns 0 when either side is unordered), so the row engine
// passes NaN through <=, >= and BETWEEN but not <, > — and the kernels plus
// the zone maps must reproduce that exactly. Beyond the pinned counts it holds
// every float predicate form to the row engine over NaN, -0, ±Inf, a column
// with NULL cells (one morsel of NULLs alone, which prunes) and one without:
// each comparison and its NOT, IN and NOT IN with integral, fractional and
// non-numeric items, BETWEEN and NOT BETWEEN with reversed bounds, and the bare
// column and its NOT.
func TestColumnarNaNComparisonParity(t *testing.T) {
	tbl := table.New("nt", table.Schema{{Name: "f", Kind: table.KindFloat}})
	tbl.AppendRow(table.Row{table.NewFloat(1)})
	tbl.AppendRow(table.Row{table.NewFloat(2)})
	tbl.AppendRow(table.Row{table.NewFloat(math.NaN())})
	db := table.NewDatabase()
	db.Add(tbl)
	for _, tc := range []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM nt WHERE f >= 5", 1},            // NaN only
		{"SELECT * FROM nt WHERE f <= 0", 1},            // NaN only
		{"SELECT * FROM nt WHERE f > 5", 0},             // NaN excluded by strict compare
		{"SELECT * FROM nt WHERE f < 5", 2},             // 1 and 2, not NaN
		{"SELECT * FROM nt WHERE f BETWEEN 5 AND 9", 1}, // NaN is BETWEEN everything
		{"SELECT * FROM nt WHERE f BETWEEN 0 AND 3", 3},
		{"SELECT * FROM nt WHERE f = 5", 0}, // equality uses Value.Equal: NaN never equal
		{"SELECT * FROM nt WHERE f <> 5", 3},
	} {
		stmt := sqlparse.MustParse(tc.sql)
		row, err := rowExecute(context.Background(), db, stmt, Options{TrackLineage: true})
		if err != nil {
			t.Fatalf("%s (row): %v", tc.sql, err)
		}
		col, err := ExecuteWith(db, stmt, Options{TrackLineage: true})
		if err != nil {
			t.Fatalf("%s (columnar): %v", tc.sql, err)
		}
		if got := row.Table.NumRows(); got != tc.want {
			t.Errorf("%s: row engine returned %d rows, want %d", tc.sql, got, tc.want)
		}
		if rf, cf := resultFingerprint(row), resultFingerprint(col); rf != cf {
			t.Errorf("%s: columnar diverges from row engine\nrow:\n%s\ncolumnar:\n%s", tc.sql, rf, cf)
		}
	}

	cells := []float64{1, 2, math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 2.5, -3.5, 5, -1e300}
	wide := table.New("ft", table.Schema{{Name: "id", Kind: table.KindInt}, {Name: "f", Kind: table.KindFloat}, {Name: "g", Kind: table.KindFloat}})
	for i := 0; i < 3*table.ZoneChunkRows+5; i++ {
		g := table.NewFloat(cells[i%len(cells)])
		f := g
		if i%4 == 1 || i/table.ZoneChunkRows == 1 { // the second morsel: NULLs alone
			f = table.Null
		}
		wide.AppendRow(table.Row{table.NewInt(int64(i)), f, g})
	}
	db.Add(wide)
	bounds := []string{"0", "-0.0", "2", "2.5", "-3.5", "1e308", "-1e308", "'x'", "NULL"}
	var preds []string
	for _, col := range []string{"f", "g"} {
		for _, l := range bounds {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				preds = append(preds, fmt.Sprintf("%s %s %s", col, op, l), fmt.Sprintf("NOT %s %s %s", col, op, l))
			}
			for _, h := range bounds[:7] {
				preds = append(preds, fmt.Sprintf("%s BETWEEN %s AND %s", col, l, h), fmt.Sprintf("%s NOT BETWEEN %s AND %s", col, l, h))
			}
		}
		for _, p := range []string{
			"%s", "NOT %s", "%s IN (2, 2.5, 'x')", "%s NOT IN (2, 2.5, 'x')", "%s IN ('x')", "%s NOT IN ('x')",
			"%s IN (0)", "%s NOT IN (-0.0, 1, 5)", "%s IN (-3.5, 1e308)", "%s OR id < 10", "NOT %s AND id > 100",
		} {
			preds = append(preds, fmt.Sprintf(p, col))
		}
	}
	matchRowEngine(t, db, "ft", preds)
}

// matchRowEngine holds SELECT id FROM <from> WHERE <pred>, for each pred, to
// the row engine's answer.
func matchRowEngine(t *testing.T, db *table.Database, from string, preds []string) {
	t.Helper()
	for _, pred := range preds {
		stmt := sqlparse.MustParse("SELECT id FROM " + from + " WHERE " + pred)
		row, err := rowExecute(context.Background(), db, stmt, Options{})
		if err != nil {
			t.Fatalf("%s (row): %v", pred, err)
		}
		col, err := ExecuteWith(db, stmt, Options{})
		if err != nil {
			t.Fatalf("%s (columnar): %v", pred, err)
		}
		if resultFingerprint(row) != resultFingerprint(col) {
			t.Errorf("%s: columnar keeps %d rows, the row engine %d", pred, col.Table.NumRows(), row.Table.NumRows())
		}
	}
}

// TestIntKernelsMatchFloatComparison pins the int64 comparison kernels to the
// row engine's float64 comparison at the edges where the two could part: cells
// beyond ±2^53 (which round as float64), bounds at and next to 2^53 (the first
// bound the int path must leave to the float path), float-typed integral and
// fractional bounds, reversed BETWEEN bounds, NULL cells, and morsels the zone
// maps prune; and the bare column and its NOT, which compile as v <> 0 and
// v = 0, beside IN and NOT IN.
func TestIntKernelsMatchFloatComparison(t *testing.T) {
	const p53 = 1 << 53
	for l, want := range map[float64]bool{0: true, -7: true, p53 - 1: true, 1 - p53: true, p53: false, -p53: false, 2.5: false, math.Inf(1): false, math.NaN(): false} {
		if got, ok := exactInt(l); ok != want || ok && float64(got) != l {
			t.Errorf("exactInt(%v) = %d, %v", l, got, ok)
		}
	}
	cells := []int64{math.MinInt64, -p53 - 1, -p53, 1 - p53, -6, -5, -1, 0, 1, 4, 5, 6, p53 - 2, p53 - 1, p53, p53 + 1, p53 + 2, math.MaxInt64}
	tbl := table.New("it", table.Schema{{Name: "id", Kind: table.KindInt}, {Name: "v", Kind: table.KindInt}, {Name: "w", Kind: table.KindInt}})
	for i := 0; i < 3*table.ZoneChunkRows; i++ {
		v, w := table.NewInt(cells[i%len(cells)]), table.NewInt(cells[i%len(cells)])
		if i%7 == 3 {
			w = table.Null
		}
		if i >= table.ZoneChunkRows { // two morsels of small values only
			v = table.NewInt(int64(i % 10))
		}
		tbl.AppendRow(table.Row{table.NewInt(int64(i)), v, w})
	}
	db := table.NewDatabase()
	db.Add(tbl)
	bounds := []string{"5", "5.0", "-5", "0", "2.5", "9007199254740990", "9007199254740991", "9007199254740992", "9007199254740993",
		"-9007199254740991", "-9007199254740992", "9223372036854775807", "1e300"}
	var preds []string
	for _, col := range []string{"v", "w"} {
		for _, l := range bounds {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				preds = append(preds, fmt.Sprintf("%s %s %s", col, op, l), fmt.Sprintf("NOT %s %s %s", col, op, l))
			}
			for _, h := range bounds {
				preds = append(preds, fmt.Sprintf("%s BETWEEN %s AND %s", col, l, h), fmt.Sprintf("%s NOT BETWEEN %s AND %s", col, l, h))
			}
		}
		for _, p := range []string{"%s", "NOT %s", "%s IN (0, 5, 'x')", "%s NOT IN (5)"} {
			preds = append(preds, fmt.Sprintf(p, col))
		}
	}
	matchRowEngine(t, db, "it", preds)
}

// TestMaskKernelsMatchRowEngine pins the branch-free dictionary and bool
// kernels to the row engine: masks that pass every code, none (constant-false)
// and some, over a column with NULLs and one without, a morsel of NULLs alone
// (pruned) included, and composed under AND, OR and NOT.
func TestMaskKernelsMatchRowEngine(t *testing.T) {
	words := []string{"drama", "comedy", "noir", ""}
	tbl := table.New("mt", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "s", Kind: table.KindString}, {Name: "sn", Kind: table.KindString},
		{Name: "b", Kind: table.KindBool}, {Name: "bn", Kind: table.KindBool},
	})
	for i := 0; i < 3*table.ZoneChunkRows+17; i++ {
		s, b := table.NewString(words[i%len(words)]), table.NewBool(i%3 == 0)
		sn, bn := s, b
		if i%5 == 2 || i/table.ZoneChunkRows == 1 { // the second morsel: NULLs alone
			sn, bn = table.Null, table.Null
		}
		tbl.AppendRow(table.Row{table.NewInt(int64(i)), s, sn, b, bn})
	}
	db := table.NewDatabase()
	db.Add(tbl)
	var preds []string
	for _, col := range []string{"s", "sn"} {
		for _, p := range []string{
			"%s <> 'zzz'", "%s = 'zzz'", "%s = 'noir'", "%s <> 'noir'", "%s >= ''", "%s < ''", "%s > 'd'",
			"%s LIKE '%%'", "%s NOT LIKE '%%'", "%s LIKE 'd%%'", "%s NOT LIKE '_o%%'",
			"%s IN ('drama', 'noir', 7)", "%s NOT IN ('drama', 'noir')", "%s IN ('zzz')", "%s NOT IN ('zzz')",
			"%s BETWEEN 'a' AND 'e'", "%s NOT BETWEEN 'a' AND 'e'", "%s BETWEEN '' AND 'zzz'", "%s", "NOT %s",
			"%s = 'noir' OR id < 10", "NOT (%s = 'noir' AND id > 100)",
		} {
			preds = append(preds, fmt.Sprintf(p, col))
		}
	}
	for _, col := range []string{"b", "bn"} {
		for _, p := range []string{
			"%s", "NOT %s", "%s = true", "%s <> true", "%s = false", "%s >= false", "%s < false", "%s > true",
			"%s IN (true, false)", "%s NOT IN (true, false)", "%s IN (true)", "%s NOT IN (false, 1)",
			"%s OR id < 10", "NOT %s AND id > 100",
		} {
			preds = append(preds, fmt.Sprintf(p, col))
		}
	}
	matchRowEngine(t, db, "mt", preds)
}

// TestJoinIndexTelemetry pins the index-backed join's one-name-per-fact
// signals: the build relation's index is built by the first join that needs it
// and never again (engine/join/index_builds, engine/join/index_build/seconds),
// and every join step annotates the engine/join span with the layout it
// probed, how the runs were emitted and by how many workers, and the build-side
// candidate count.
func TestJoinIndexTelemetry(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(true)
	obs.Default().Reset()
	defer obs.Default().Reset()

	db := testDB()
	stmt := sqlparse.MustParse(
		"SELECT m.title, c.person FROM movies m JOIN credits c ON m.id = c.movie_id WHERE c.role = 'director'")
	var snap obs.SpanSnapshot
	for i := 0; i < 3; i++ {
		ctx, root := obs.StartSpan(context.Background(), "test/root")
		if _, err := ExecuteWithContext(ctx, db, stmt, Options{}); err != nil {
			t.Fatal(err)
		}
		root.End()
		snap = root.Snapshot()
	}
	reg := obs.Default().Snapshot()
	if got := reg.Counters[metricJoinIndexBuilds]; got != 1 {
		t.Errorf("%s = %d after three runs of one join, want 1", metricJoinIndexBuilds, got)
	}
	if got := reg.Histograms[metricJoinIndexBuildSeconds].Count; got != 1 {
		t.Errorf("%s count = %d, want 1", metricJoinIndexBuildSeconds, got)
	}
	join := findSpan(snap, "engine/join")
	if join == nil {
		t.Fatal("no engine/join span")
	}
	if got := join.Attrs["index/c"]; got != "dense, runs" {
		t.Errorf("engine/join index/c = %v, want dense, runs; attrs %v", got, join.Attrs)
	}
	directors, err := ExecuteWith(db, sqlparse.MustParse("SELECT * FROM credits WHERE role = 'director'"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := join.Attrs["build_rows/c"]; got != directors.Table.NumRows() {
		t.Errorf("engine/join build_rows/c = %v, want %d", got, directors.Table.NumRows())
	}
}

// TestIndexedJoinAllocs pins what the cached join index buys: once warm, a
// single-pair join whose build side is an unfiltered 50 000-row relation
// allocates for its few output rows and columns (72 at the time of writing),
// not per build row or per distinct build key — the per-query hash table it
// replaces cost one bucket per distinct key, 12 500 here.
func TestIndexedJoinAllocs(t *testing.T) {
	big := table.New("big", table.Schema{{Name: "k", Kind: table.KindInt}, {Name: "v", Kind: table.KindInt}})
	for i := 0; i < 50_000; i++ {
		big.AppendRow(table.Row{table.NewInt(int64(i / 4)), table.NewInt(int64(i))})
	}
	small := table.New("small", table.Schema{{Name: "k", Kind: table.KindInt}})
	for i := 0; i < 4; i++ {
		small.AppendRow(table.Row{table.NewInt(int64(i * 1000))})
	}
	db := table.NewDatabase()
	db.Add(big)
	db.Add(small)
	stmt := sqlparse.MustParse("SELECT s.k, b.v FROM small s JOIN big b ON s.k = b.k")
	run := func() {
		res, err := ExecuteWith(db, stmt, Options{})
		if err != nil || res.Table.NumRows() != 16 {
			t.Fatalf("rows = %v, err = %v; want 16 rows", res, err)
		}
	}
	run() // warm: columnar views, identity vectors, the index on big.k
	if allocs := testing.AllocsPerRun(20, run); allocs > 150 {
		t.Fatalf("warm indexed join allocates %v times per run; want O(output), at most 150", allocs)
	}
}

// TestJoinWorkBoundedByCandidatesAndMatches pins the index join's cost model
// on the shapes a cached single-column index serves worst: a low-cardinality
// key written first, a selective filter on the build side of a low-cardinality
// key, a filter anti-correlated with the probe keys, and a composite key whose
// parts are each unselective. The row engine hashes exactly the candidates on
// the composite key, so its time is the yardstick: the columnar join is
// normally several times faster and must stay within 3x of it (the race
// detector narrows the gap); work proportional to probe rows x run length is
// 40-100x slower on these shapes.
func TestJoinWorkBoundedByCandidatesAndMatches(t *testing.T) {
	const n = 50_000
	db := lowCardJoinDB(n)
	cases := []struct {
		sql  string
		rows int
	}{
		{"SELECT a.id FROM a JOIN b ON a.cat = b.cat AND a.id = b.id", n},
		{"SELECT a.id FROM a JOIN b ON a.cat = b.cat AND a.id = b.v WHERE b.id > 49990", 2},
		{"SELECT a.id FROM a JOIN b ON a.cat = b.cat WHERE b.id < 5", n},
		{"SELECT a.id FROM a JOIN b ON a.cat = b.cat WHERE a.cat = 'c0' AND b.cat <> 'c0'", 0},
		{"SELECT a.id FROM a JOIN b ON a.x = b.x AND a.y = b.y", n},
		{"SELECT a.id FROM a JOIN b ON a.x = b.x AND a.y = b.y WHERE b.id < 500", 500},
	}
	type executor func(context.Context, *table.Database, *sqlparse.Select, Options) (*Result, error)
	best := func(stmt *sqlparse.Select, exec executor, want int) time.Duration {
		min := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			res, err := exec(context.Background(), db, stmt, Options{})
			if d := time.Since(start); d < min {
				min = d
			}
			if err != nil || res.Table.NumRows() != want {
				t.Fatalf("%s: rows = %v, err = %v; want %d rows", stmt, res, err, want)
			}
		}
		return min
	}
	for _, c := range cases {
		stmt := sqlparse.MustParse(c.sql)
		row := best(stmt, rowExecute, c.rows)
		if col := best(stmt, ExecuteWithContext, c.rows); col > 3*row {
			t.Errorf("%s: columnar took %v, row engine %v", c.sql, col, row)
		} else {
			t.Logf("%s: columnar %v, row engine %v", c.sql, col, row)
		}
	}
}

// lowCardJoinDB is two n-row tables a and b with a unique id, its mirror image
// v, a 5-value string cat, and x, y that are unselective apart (224 values
// each at 50 000 rows) and unique together.
func lowCardJoinDB(n int) *table.Database {
	schema := table.Schema{
		{Name: "id", Kind: table.KindInt}, {Name: "cat", Kind: table.KindString}, {Name: "v", Kind: table.KindInt},
		{Name: "x", Kind: table.KindInt}, {Name: "y", Kind: table.KindInt},
	}
	db := table.NewDatabase()
	for _, name := range []string{"a", "b"} {
		tb := table.New(name, schema)
		for i := 0; i < n; i++ {
			tb.AppendRow(table.Row{table.NewInt(int64(i)), table.NewString("c" + string(rune('0'+i%5))),
				table.NewInt(int64(n - 1 - i)), table.NewInt(int64(i % 224)), table.NewInt(int64(i / 224))})
		}
		db.Add(tb)
	}
	return db
}

// cancelInProbe is a context that reads as canceled exactly when the guard
// polls it from inside joinMatcher.matches.
type cancelInProbe struct{ context.Context }

func (c cancelInProbe) Err() error {
	pcs := make([]uintptr, 16)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "(*joinMatcher).matches") {
			return context.Canceled
		}
		if !more {
			return nil
		}
	}
}

// TestJoinPollsGuardWhileScanningPastRows: a probe ticks the guard per row it
// emits, so the index rows it scans past must reach the guard themselves —
// cancellation and deadlines fire during such a probe.
func TestJoinPollsGuardWhileScanningPastRows(t *testing.T) {
	db := lowCardJoinDB(8192)
	for _, sql := range []string{
		"SELECT a.id FROM a JOIN b ON a.cat = b.cat WHERE a.cat = 'c0' AND b.cat <> 'c0'",
		"SELECT a.id FROM a JOIN b ON a.x = b.x AND a.v = b.y",
	} {
		stmt := sqlparse.MustParse(sql)
		if _, err := ExecuteWithContext(context.Background(), db, stmt, Options{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		_, err := ExecuteWithContext(cancelInProbe{context.Background()}, db, stmt, Options{})
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled from a poll inside the probe", sql, err)
		}
	}
}

// The three tests below keep the names the tests floor knows them by; each is
// the one serial instance of a check that used to sweep worker counts.

// TestParallelIntermediateBudget: a hash join's intermediate budget trips
// ErrRowBudget in the engine and in the row-engine oracle alike.
func TestParallelIntermediateBudget(t *testing.T) {
	db := datagen.IMDB(0.3, 1)
	stmt := sqlparse.MustParse(benchQueries["HashJoin"])
	opts := Options{MaxIntermediateRows: 10}
	if _, err := ExecuteWith(db, stmt, opts); !errors.Is(err, ErrRowBudget) {
		t.Errorf("engine: err = %v, want ErrRowBudget", err)
	}
	if _, err := rowExecute(context.Background(), db, stmt, opts); !errors.Is(err, ErrRowBudget) {
		t.Errorf("row engine: err = %v, want ErrRowBudget", err)
	}
}

// TestParallelDeadlineAndCancel: an expired deadline and a canceled context
// surface as their typed errors from a three-way join over several morsels.
func TestParallelDeadlineAndCancel(t *testing.T) {
	db := datagen.IMDB(0.3, 1)
	stmt := sqlparse.MustParse(benchQueries["ThreeWay"])
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := ExecuteWithContext(expired, db, stmt, Options{}); !errors.Is(err, ErrDeadline) {
		t.Errorf("expired deadline: err = %v, want ErrDeadline", err)
	}
	if _, err := ExecuteWithContext(canceled, db, stmt, Options{}); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled context: err = %v, want ErrCanceled", err)
	}
}

// TestParallelOutputBudgetPartialRows: an output budget over a scan of several
// morsels returns exactly the rows before the trip, the oracle's, with the
// error.
func TestParallelOutputBudgetPartialRows(t *testing.T) {
	db := datagen.IMDB(0.3, 1)
	stmt := sqlparse.MustParse("SELECT * FROM title")
	opts := Options{MaxOutputRows: 7}
	res, err := ExecuteWith(db, stmt, opts)
	if !errors.Is(err, ErrRowBudget) || res == nil || res.Table.NumRows() != 7 {
		t.Fatalf("partial rows = %v, err = %v; want exactly 7 and ErrRowBudget", res, err)
	}
	ref, rerr := rowExecute(context.Background(), db, stmt, opts)
	if !errors.Is(rerr, ErrRowBudget) || resultFingerprint(ref) != resultFingerprint(res) {
		t.Errorf("row engine: err = %v, or other partial rows", rerr)
	}
}
