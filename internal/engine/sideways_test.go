package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"asqprl/internal/obs"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// sidewaysDB is a 1 200-row relation s with a unique key k, an 8 000-row
// relation r whose k repeats four times (so 1/sidewaysFrac of r is 1 000 rows:
// 250 keys), and a 500-row relation t keyed to s. r.v is the row number.
func sidewaysDB() *table.Database {
	db := table.NewDatabase()
	for _, spec := range []struct {
		name         string
		rows, perKey int
	}{{"s", 1200, 1}, {"r", 8000, 4}, {"t", 500, 1}} {
		tb := table.New(spec.name, table.Schema{{Name: "k", Kind: table.KindInt}, {Name: "v", Kind: table.KindInt}})
		for i := 0; i < spec.rows; i++ {
			tb.AppendRow(table.Row{table.NewInt(int64(i / spec.perKey)), table.NewInt(int64(i))})
		}
		db.Add(tb)
	}
	return db
}

// scanAttrs executes sql under a traced context and returns the engine/scan
// span's annotations beside the result.
func scanAttrs(t *testing.T, db *table.Database, sql string, opts Options) (*Result, map[string]any) {
	t.Helper()
	ctx, root := obs.StartSpan(context.Background(), "test/root")
	res, err := ExecuteWithContext(ctx, db, sqlparse.MustParse(sql), opts)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	root.End()
	scan := findSpan(root.Snapshot(), "engine/scan")
	if scan == nil {
		t.Fatalf("%s: no engine/scan span", sql)
	}
	return res, scan.Attrs
}

// TestSidewaysDecision pins the access-path rule of the scan phase and its one
// name per fact: r is read through s's surviving keys when they, and the rows
// of r they reach, are each under an eighth of r — and then exactly those rows
// are read — and whole otherwise; a scan that declines on the key count alone
// asks for no index; s, scanned first, is read whole unless its own range on
// s.v holds under an eighth of it (then through s.v's index, as
// TestIndexRangeDecision pins); answers equal the row engine's either way.
func TestSidewaysDecision(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(true)
	obs.Default().Reset()
	defer obs.Default().Reset()

	db := sidewaysDB()
	rK := db.Table("r").ColumnIndex("k")
	for _, c := range []struct {
		name, where      string
		via              string
		keys, rowsRead   int
		viaS             string
		rowsReadS        int
		sideways, rowsIn int64 // counters' growth
		indexBuilt       bool  // r.k's index exists afterwards
	}{
		// r is the probe side (relation 0), so no join step builds r.k's index.
		{"declines on the key count, asks for no index", "s.v >= 0", "full", 1200, 8000, "full", 1200, 0, 9200, false},
		{"declines on the rows the keys reach", "s.v < 250", "full", 250, 8000, "full", 1200, 0, 9200, true},
		{"reads the reachable rows", "s.v < 249 AND r.v >= 0", "s.k", 249, 996, "full", 1200, 1, 2196, true},
		{"reads them without a filter of its own", "s.v < 100", "s.k", 100, 400, "index s.v", 100, 1, 500, true},
		{"no key survives", "s.v < 0", "s.k", 0, 0, "index s.v", 0, 1, 0, true},
	} {
		sql := "SELECT r.v, s.v FROM r JOIN s ON r.k = s.k WHERE " + c.where
		before := obs.Default().Snapshot().Counters
		res, attrs := scanAttrs(t, db, sql, Options{TrackLineage: true})
		after := obs.Default().Snapshot().Counters
		if attrs["via/r"] != c.via || attrs["keys/r"] != c.keys || attrs["rows_read/r"] != c.rowsRead {
			t.Errorf("%s: via/r=%v keys/r=%v rows_read/r=%v, want %s %d %d", c.name, attrs["via/r"], attrs["keys/r"], attrs["rows_read/r"], c.via, c.keys, c.rowsRead)
		}
		if attrs["via/s"] != c.viaS || attrs["rows_read/s"] != c.rowsReadS || attrs["keys/s"] != 0 {
			t.Errorf("%s: via/s=%v rows_read/s=%v keys/s=%v, want %s %d 0 (s is scanned first)", c.name, attrs["via/s"], attrs["rows_read/s"], attrs["keys/s"], c.viaS, c.rowsReadS)
		}
		if d := after[metricScanSideways] - before[metricScanSideways]; d != c.sideways {
			t.Errorf("%s: %s grew by %d, want %d", c.name, metricScanSideways, d, c.sideways)
		}
		if d := after[metricScanRowsRead] - before[metricScanRowsRead]; d != c.rowsIn {
			t.Errorf("%s: %s grew by %d, want %d", c.name, metricScanRowsRead, d, c.rowsIn)
		}
		ref, err := rowExecute(context.Background(), db, sqlparse.MustParse(sql), Options{TrackLineage: true})
		if err != nil {
			t.Fatal(err)
		}
		if resultFingerprint(res) != resultFingerprint(ref) {
			t.Errorf("%s: columnar answer diverges from the row engine's", c.name)
		}
		if !c.indexBuilt {
			// Asking now must be what builds it.
			if _, built := db.Table("r").Columns().JoinIndex(rK); !built {
				t.Errorf("%s: r.k was indexed for a scan that never looked a key up", c.name)
			}
		}
	}
}

// TestSidewaysDeclineCostsOneLookupPerKey: counting the reachable rows asks for
// each partner candidate's key at most once and stops at the limit.
func TestSidewaysDeclineCostsOneLookupPerKey(t *testing.T) {
	db := sidewaysDB()
	r, s := db.Table("r").Columns(), db.Table("s").Columns()
	ix, _ := r.JoinIndex(0)
	calls := 0
	keyer := func(ri int32) (table.JoinKey, bool) {
		calls++
		return s.Cols[0].JoinKeyer(nil)(ri)
	}
	mark := table.NewBitmap(r.NumRows)
	if reach := reachable(ix, keyer, s.Identity(), 1000, mark); reach < 1000 || calls != 250 {
		t.Errorf("reach %d after %d lookups, want the limit of 1000 rows reached at the 250th of 1200 keys", reach, calls)
	}
	calls = 0
	mark = table.NewBitmap(r.NumRows)
	reach := reachable(ix, keyer, s.Identity()[:200], 1000, mark)
	if rows := mark.AppendRows(nil); reach != 800 || calls != 200 || len(rows) != 800 || rows[0] != 0 || rows[799] != 799 {
		t.Errorf("reach %d after %d lookups, %d rows marked; want rows 0..799 after 200", reach, calls, len(rows))
	}
}

// TestSidewaysFitsIntermediateBudget pins the one visible difference of
// reading only rows that can join: the row engine joins a with all of b before
// t's filter leaves five keys, and MaxIntermediateRows refuses those 4 000
// tuples; the columnar scan reads b through t's keys, the same step makes 40,
// and the answer is the row engine's with the budget lifted.
func TestSidewaysFitsIntermediateBudget(t *testing.T) {
	db := table.NewDatabase()
	a := table.New("a", table.Schema{{Name: "id", Kind: table.KindInt}})
	for i := 0; i < 2000; i++ {
		a.AppendRow(table.Row{table.NewInt(int64(i))})
	}
	b := table.New("b", table.Schema{{Name: "a_id", Kind: table.KindInt}, {Name: "t_id", Kind: table.KindInt}})
	for i := 0; i < 4000; i++ {
		b.AppendRow(table.Row{table.NewInt(int64(i / 2)), table.NewInt(int64(i % 500))})
	}
	tt := table.New("t", table.Schema{{Name: "id", Kind: table.KindInt}, {Name: "v", Kind: table.KindInt}})
	for i := 0; i < 500; i++ {
		tt.AppendRow(table.Row{table.NewInt(int64(i)), table.NewInt(int64(i % 100))})
	}
	db.Add(a)
	db.Add(b)
	db.Add(tt)
	stmt := sqlparse.MustParse("SELECT a.id, t.id FROM a JOIN b ON a.id = b.a_id JOIN t ON t.id = b.t_id WHERE t.v = 1")
	opts := Options{TrackLineage: true, MaxIntermediateRows: 1000}
	if _, err := rowExecute(context.Background(), db, stmt, opts); !errors.Is(err, ErrRowBudget) {
		t.Fatalf("row engine under the budget: err = %v, want ErrRowBudget", err)
	}
	ref, err := rowExecute(context.Background(), db, stmt, Options{TrackLineage: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteWith(db, stmt, opts)
	if err != nil {
		t.Fatalf("columnar under the budget: %v", err)
	}
	if res.Table.NumRows() != 40 || resultFingerprint(res) != resultFingerprint(ref) {
		t.Errorf("columnar: %d rows, diverging from the row engine with the budget lifted (%d rows)", res.Table.NumRows(), ref.Table.NumRows())
	}
}

// TestProbeKeyerTranslatesLazily: a probe over a string key translates only the
// dictionary codes its rows carry — ten rows, at most ten of the probe column's
// 10 000 strings — and a string the build side lacks still matches nothing.
func TestProbeKeyerTranslatesLazily(t *testing.T) {
	const distinct = 10_000
	big := table.New("big", table.Schema{{Name: "name", Kind: table.KindString}, {Name: "v", Kind: table.KindInt}})
	other := table.New("other", table.Schema{{Name: "name", Kind: table.KindString}})
	for i := 0; i < distinct; i++ {
		big.AppendRow(table.Row{table.NewString(fmt.Sprintf("p%05d", i)), table.NewInt(int64(i))})
		// Even strings are big's, odd ones are in no row of big.
		other.AppendRow(table.Row{table.NewString(fmt.Sprintf("p%05d", i+i%2*distinct))})
	}
	pc, bc := &other.Columns().Cols[0], &big.Columns().Cols[0]
	x := &dictXlat{from: pc.Dict, to: bc.Dict, memo: make([]int32, pc.Dict.Len())}
	keyer := pc.JoinKeyer(x.code)
	ix, _ := big.Columns().JoinIndex(0)
	for ri := int32(0); ri < 10; ri++ {
		for pass := 0; pass < 2; pass++ { // the second pass reads the memo
			k, ok := keyer(ri)
			if !ok {
				t.Fatalf("row %d: NULL key", ri)
			}
			run := ix.Lookup(k)
			if ri%2 == 1 && (k.Tag != table.TagMiss || run != nil) {
				t.Errorf("row %d carries a string big lacks: key %+v matched rows %v", ri, k, run)
			}
			if ri%2 == 0 && (len(run) != 1 || run[0] != ri) {
				t.Errorf("row %d: key %+v matched rows %v, want [%d]", ri, k, run, ri)
			}
		}
	}
	translated := 0
	for i := range x.memo {
		if x.memo[i] != 0 {
			translated++
		}
	}
	if translated != 10 {
		t.Errorf("%d codes translated by a 10-row probe, want 10", translated)
	}

	// The same through the engine: both sides of the join take the keyer.
	db := table.NewDatabase()
	db.Add(big)
	db.Add(other)
	for _, sql := range []string{
		"SELECT b.v FROM other o JOIN big b ON o.name = b.name WHERE o.name < 'p00010'",
		"SELECT b.v FROM big b JOIN other o ON o.name = b.name WHERE b.v < 10",
	} {
		stmt := sqlparse.MustParse(sql)
		ref, err := rowExecute(context.Background(), db, stmt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExecuteWith(db, stmt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Table.NumRows() != 5 || resultFingerprint(res) != resultFingerprint(ref) {
			t.Errorf("%s: columnar answer diverges from the row engine's %d rows (want 5)", sql, ref.Table.NumRows())
		}
	}
}

// TestExplainScanOrder: EXPLAIN prints the scans in the order they run —
// fewest candidate rows first, an index range's exact count standing in for its
// table's size — with the index a scan reads and the partner column a scan may
// take its keys from; a filter that does not compile keeps FROM order and
// promises nothing.
func TestExplainScanOrder(t *testing.T) {
	db := sidewaysDB()
	for _, c := range []struct {
		where string
		scans []string // in the order they must appear
	}{
		// 600 of s's rows pass: more than t's 500 and than an eighth of s.
		{"s.v < 600", []string{
			"scan t (500 rows)\n",
			"scan s (1200 rows) filter: s.v < 600 keys from t.k when selective\n",
			"scan r (8000 rows) keys from s.k when selective\n",
		}},
		// 100 pass: fewer than t has, and s reads them through its index.
		{"s.v < 100", []string{
			"scan s (1200 rows) filter: s.v < 100 via index s.v (100 rows)\n",
			"scan t (500 rows) keys from s.k when selective\n",
			"scan r (8000 rows) keys from s.k when selective\n",
		}},
	} {
		plan, err := Explain(db, sqlparse.MustParse("SELECT r.v FROM r JOIN s ON r.k = s.k JOIN t ON t.k = s.k WHERE "+c.where))
		if err != nil {
			t.Fatal(err)
		}
		at := -1
		for _, scan := range c.scans {
			i := strings.Index(plan, scan)
			if i <= at {
				t.Errorf("%s: plan does not have %q after the scans before it:\n%s", c.where, scan, plan)
			}
			at = i
		}
	}
	plan, err := Explain(db, sqlparse.MustParse("SELECT r.v FROM r JOIN s ON r.k = s.k WHERE s.v + 1 < 100"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "keys from") || strings.Index(plan, "scan r") > strings.Index(plan, "scan s") {
		t.Errorf("a filter that does not compile must keep FROM order and full scans:\n%s", plan)
	}
}

// indexDB is x, 8 000 rows: k repeats four times, d runs over -200..200 out of
// row order and is NULL in every seventeenth row (a dense index), sp spreads the
// row number a million times wider (a sparse one) and f is d as a float; y, 2 000
// rows, has a unique k and v its row number; small is x's first 1 000 rows, one
// morsel.
func indexDB() *table.Database {
	db := table.NewDatabase()
	schema := table.Schema{{Name: "k", Kind: table.KindInt}, {Name: "d", Kind: table.KindInt}, {Name: "sp", Kind: table.KindInt}, {Name: "f", Kind: table.KindFloat}}
	x, small := table.New("x", schema), table.New("small", schema)
	for i := 0; i < 8000; i++ {
		d := int64(i*7919%401 - 200)
		row := table.Row{table.NewInt(int64(i / 4)), table.NewInt(d), table.NewInt(int64(i) * 1_000_003), table.NewFloat(float64(d))}
		if i%17 == 0 {
			row[1] = table.Null
		}
		x.AppendRow(row)
		if i < 1000 {
			small.AppendRow(row)
		}
	}
	y := table.New("y", table.Schema{{Name: "k", Kind: table.KindInt}, {Name: "v", Kind: table.KindInt}})
	for i := 0; i < 2000; i++ {
		y.AppendRow(table.Row{table.NewInt(int64(i)), table.NewInt(int64(i))})
	}
	db.Add(x)
	db.Add(y)
	db.Add(small)
	return db
}

// TestIndexRangeDecision pins the scan's third access path beside
// TestSidewaysDecision's two: a relation of more than one morsel whose int range
// holds under an eighth of its rows in a dense index reads exactly those rows
// (via/<rel> "index <col>"); a range over more declines after counting, and a
// sparse int column, a float column, <>, NOT BETWEEN, a non-integral bound and a
// one-morsel relation decline without an index being built. A bare int column
// reads as col <> 0 and declines; NOT col reads as col = 0 and takes the index. In a join the
// narrower of a relation's index range and a partner's keys is read, and the
// relation with fewer candidate rows is scanned first. Answers, lineage
// included, equal the row engine's in every case.
func TestIndexRangeDecision(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(true)
	obs.Default().Reset()
	defer obs.Default().Reset()

	// inRange counts x's non-NULL d in [lo, hi]: the rows its index holds.
	inRange := func(lo, hi int64) (n int) {
		for i := 0; i < 8000; i++ {
			if d := int64(i*7919%401 - 200); i%17 != 0 && lo <= d && d <= hi {
				n++
			}
		}
		return n
	}
	type read struct {
		via  string
		rows int
	}
	for _, c := range []struct {
		sql     string
		reads   map[string]read
		unbuilt string // a column of x (or small) no decision may index
	}{
		{"SELECT x.k FROM x WHERE x.d = 5", map[string]read{"x": {"index x.d", inRange(5, 5)}}, ""},
		{"SELECT x.k, x.d FROM x WHERE x.d BETWEEN -3 AND 3", map[string]read{"x": {"index x.d", inRange(-3, 3)}}, ""},
		{"SELECT * FROM x WHERE 190 < x.d AND x.f < 195", map[string]read{"x": {"index x.d", inRange(191, 200)}}, ""},
		{"SELECT x.k FROM x WHERE NOT x.d >= -195", map[string]read{"x": {"index x.d", inRange(-200, -196)}}, ""},
		{"SELECT x.k FROM x WHERE NOT x.d", map[string]read{"x": {"index x.d", inRange(0, 0)}}, ""}, // x.d = 0
		{"SELECT x.k FROM x WHERE x.d < -1000", map[string]read{"x": {"index x.d", 0}}, ""},
		{"SELECT x.k FROM x WHERE x.d >= -150", map[string]read{"x": {"full", 8000}}, ""},
		{"SELECT x.k FROM x WHERE x.sp < 5000000", map[string]read{"x": {"full", 8000}}, "sp"},
		{"SELECT x.k FROM x WHERE x.f = 5", map[string]read{"x": {"full", 8000}}, "f"},
		{"SELECT x.k FROM x WHERE x.d <> 5", map[string]read{"x": {"full", 8000}}, "d"},
		{"SELECT x.k FROM x WHERE x.d", map[string]read{"x": {"full", 8000}}, "d"}, // x.d <> 0
		{"SELECT x.k FROM x WHERE x.d NOT BETWEEN -200 AND 195", map[string]read{"x": {"full", 8000}}, "d"},
		{"SELECT x.k FROM x WHERE x.d < -195.5", map[string]read{"x": {"full", 8000}}, "d"},
		{"SELECT small.k FROM small WHERE small.d = 5", map[string]read{"small": {"full", 1000}}, "d"},
		// y's 10 keys reach 40 rows of x, fewer than its own range holds.
		{"SELECT x.d, y.v FROM x JOIN y ON x.k = y.k WHERE y.v < 10 AND x.d BETWEEN -10 AND 10",
			map[string]read{"y": {"index y.v", 10}, "x": {"y.k", 40}}, ""},
		// y's 100 keys would reach 400 rows: x's own range holds fewer.
		{"SELECT x.d, y.v FROM x JOIN y ON x.k = y.k WHERE y.v < 100 AND x.d BETWEEN -5 AND 5",
			map[string]read{"y": {"index y.v", 100}, "x": {"index x.d", inRange(-5, 5)}}, ""},
	} {
		db := indexDB()
		before := obs.Default().Snapshot().Counters
		res, attrs := scanAttrs(t, db, c.sql, Options{TrackLineage: true})
		after := obs.Default().Snapshot().Counters
		total := 0
		for rel, want := range c.reads {
			if attrs["via/"+rel] != want.via || attrs["rows_read/"+rel] != want.rows {
				t.Errorf("%s: via/%s=%v rows_read/%s=%v, want %s %d", c.sql, rel, attrs["via/"+rel], rel, attrs["rows_read/"+rel], want.via, want.rows)
			}
			total += want.rows
		}
		if d := after[metricScanRowsRead] - before[metricScanRowsRead]; d != int64(total) {
			t.Errorf("%s: %s grew by %d, want %d", c.sql, metricScanRowsRead, d, total)
		}
		ref, err := rowExecute(context.Background(), db, sqlparse.MustParse(c.sql), Options{TrackLineage: true})
		if err != nil {
			t.Fatal(err)
		}
		if resultFingerprint(res) != resultFingerprint(ref) {
			t.Errorf("%s: columnar answer diverges from the row engine's", c.sql)
		}
		plan, err := Explain(db, sqlparse.MustParse(c.sql))
		if err != nil {
			t.Fatal(err)
		}
		for rel, want := range c.reads {
			if col, ok := strings.CutPrefix(want.via, "index "); ok {
				if !strings.Contains(plan, fmt.Sprintf(" via index %s (%d rows)", col, want.rows)) {
					t.Errorf("%s: EXPLAIN does not name %s's index and its count:\n%s", c.sql, rel, plan)
				}
			} else if want.via == "full" && strings.Contains(plan, "via index") {
				t.Errorf("%s: EXPLAIN names an index %s does not read:\n%s", c.sql, rel, plan)
			}
		}
		if c.unbuilt != "" {
			for name := range c.reads {
				tb := db.Table(name)
				if _, built := tb.Columns().JoinIndex(tb.ColumnIndex(c.unbuilt)); !built {
					t.Errorf("%s: %s.%s was indexed for a scan that declined it", c.sql, name, c.unbuilt)
				}
			}
		}
	}
}
