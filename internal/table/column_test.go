package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func colFixture() *Table {
	t := New("mix", Schema{
		{Name: "Id", Kind: KindInt},
		{Name: "Score", Kind: KindFloat},
		{Name: "Genre", Kind: KindString},
		{Name: "Active", Kind: KindBool},
	})
	t.AppendRow(Row{NewInt(3), NewFloat(1.5), NewString("drama"), NewBool(true)})
	t.AppendRow(Row{NewInt(1), Null, NewString("comedy"), NewBool(false)})
	t.AppendRow(Row{NewInt(2), NewFloat(-0.5), NewString("drama"), Null})
	t.AppendRow(Row{Null, NewFloat(9), Null, NewBool(true)})
	return t
}

func TestColumnsBuildTypedVectors(t *testing.T) {
	tbl := colFixture()
	cs := tbl.Columns()
	if cs.NumRows != 4 {
		t.Fatalf("NumRows = %d, want 4", cs.NumRows)
	}
	ints := cs.Cols[0]
	if ints.Kind != KindInt {
		t.Fatalf("int column: Kind=%v", ints.Kind)
	}
	if ints.Ints[0] != 3 || ints.Ints[1] != 1 || ints.Ints[2] != 2 {
		t.Fatalf("int vector = %v", ints.Ints)
	}
	if !ints.IsNull(3) || ints.IsNull(0) {
		t.Fatal("int null bitmap wrong")
	}
	strs := cs.Cols[2]
	if strs.Dict.Len() != 2 {
		t.Fatalf("dict size = %d, want 2 distinct strings", strs.Dict.Len())
	}
	// First-appearance coding: drama=0, comedy=1.
	if strs.Codes[0] != 0 || strs.Codes[1] != 1 || strs.Codes[2] != 0 {
		t.Fatalf("codes = %v", strs.Codes)
	}
	if strs.Codes[3] != -1 || !strs.IsNull(3) {
		t.Fatal("NULL string cell should carry code -1 and a null bit")
	}
	if c, ok := strs.Dict.Code("drama"); !ok || c != 0 {
		t.Fatalf("Code(drama) = %d,%v", c, ok)
	}
	if _, ok := strs.Dict.Code("noir"); ok {
		t.Fatal("Code(noir) should miss")
	}
	// Every cell round-trips through Value.
	for ci := range tbl.Schema {
		for ri := 0; ri < tbl.NumRows(); ri++ {
			r := tbl.Row(ri)
			got, want := cs.Cols[ci].Value(ri), r[ci]
			if got.Key() != want.Key() {
				t.Fatalf("col %d row %d: %v != %v", ci, ri, got, want)
			}
		}
	}
}

// appendPanic is the message AppendRow(r) panics with on tbl ("" if it does
// not).
func appendPanic(tbl *Table, r Row) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	tbl.AppendRow(r)
	return ""
}

// TestColumnsPanicsOnKindMismatch: a cell that is neither NULL nor of its
// column's declared kind is a programming error the append refuses, naming
// table, column, row and both kinds, and leaving the table as it was; NULLs are
// no mismatch. A wrong arity names the table and both arities.
func TestColumnsPanicsOnKindMismatch(t *testing.T) {
	tbl := New("m", Schema{{Name: "ok", Kind: KindString}, {Name: "x", Kind: KindInt}})
	tbl.AppendRow(Row{NewString("a"), NewInt(1)})
	if msg := appendPanic(tbl, Row{Null, Null}); msg != "" {
		t.Fatalf("NULL cells panicked: %s", msg)
	}
	if got, want := appendPanic(tbl, Row{NewString("b"), NewString("oops")}), "table m: column x row 2 holds a string, declared int"; got != want {
		t.Fatalf("panic = %q, want %q", got, want)
	}
	if got, want := appendPanic(tbl, Row{NewString("b")}), "table m: row arity 1 != schema arity 2"; got != want {
		t.Fatalf("panic = %q, want %q", got, want)
	}
	if cs := tbl.Columns(); cs.NumRows != 2 || len(cs.Cols[0].Codes) != 2 || cs.Cols[0].Dict.Len() != 1 || len(cs.Cols[1].Ints) != 2 {
		t.Fatalf("a refused row left cells behind: %d rows, codes %v, dict %v, ints %v", cs.NumRows, cs.Cols[0].Codes, cs.Cols[0].Dict.Strs, cs.Cols[1].Ints)
	}
}

// TestColumnsPanicsOnNullKindColumn: no cell can hold a value of kind null, so
// a column declared that way is refused too, whatever it is handed.
func TestColumnsPanicsOnNullKindColumn(t *testing.T) {
	tbl := New("n", Schema{{Name: "v", Kind: KindNull}})
	if got, want := appendPanic(tbl, Row{Null}), "table n: column v is declared null, which no cell can hold"; got != want {
		t.Fatalf("panic = %q, want %q", got, want)
	}
}

func TestColumnsZoneMaps(t *testing.T) {
	tbl := New("z", Schema{{Name: "v", Kind: KindInt}})
	n := ZoneChunkRows*2 + 100
	for i := 0; i < n; i++ {
		tbl.AppendRow(Row{NewInt(int64(i))})
	}
	c := tbl.Columns().Cols[0]
	if len(c.Zones) != 3 {
		t.Fatalf("zones = %d, want 3", len(c.Zones))
	}
	if c.Zones[0].Min != 0 || c.Zones[0].Max != float64(ZoneChunkRows-1) {
		t.Fatalf("zone 0 = [%v,%v]", c.Zones[0].Min, c.Zones[0].Max)
	}
	if c.Zones[2].Min != float64(2*ZoneChunkRows) || c.Zones[2].Max != float64(n-1) {
		t.Fatalf("last zone = [%v,%v]", c.Zones[2].Min, c.Zones[2].Max)
	}
	if c.Zones[1].HasNull || !c.Zones[1].HasValue {
		t.Fatal("zone flags wrong for all-value chunk")
	}
}

func TestColumnsInvalidatedOnAppend(t *testing.T) {
	tbl := New("inv", Schema{{Name: "v", Kind: KindInt}})
	tbl.AppendRow(Row{NewInt(1)})
	if got := tbl.Columns().NumRows; got != 1 {
		t.Fatalf("NumRows = %d", got)
	}
	tbl.AppendRow(Row{NewInt(2)})
	cs := tbl.Columns()
	if cs.NumRows != 2 || cs.Cols[0].Ints[1] != 2 {
		t.Fatal("Columns() served a stale view after AppendRow")
	}
}

// TestColumnIndexCaseFolded exercises the memoized name index: hits at every
// casing, definitive misses, and agreement with the linear EqualFold scan for
// non-ASCII names (where ToLower-based folding could diverge).
func TestColumnIndexCaseFolded(t *testing.T) {
	tbl := New("ci", Schema{
		{Name: "Id", Kind: KindInt},
		{Name: "PRODUCTION_YEAR", Kind: KindInt},
		{Name: "Straße", Kind: KindString}, // non-ASCII: forces the fallback scan
	})
	hits := map[string]int{
		"Id": 0, "id": 0, "ID": 0, "iD": 0,
		"production_year": 1, "Production_Year": 1, "PRODUCTION_YEAR": 1,
		"Straße": 2, "straße": 2, "STRASSE": -1, // ß does not case-fold to ss under EqualFold
	}
	for name, want := range hits {
		if got := tbl.ColumnIndex(name); got != want {
			t.Errorf("ColumnIndex(%q) = %d, want %d", name, got, want)
		}
		// Memoized result must agree with the reference linear scan.
		if ref := tbl.Schema.ColumnIndex(name); ref != want {
			t.Errorf("Schema.ColumnIndex(%q) = %d, want %d (test expectation wrong?)", name, ref, want)
		}
	}
	for _, miss := range []string{"", "idx", "I", "production_year2", "straß"} {
		if got := tbl.ColumnIndex(miss); got != -1 {
			t.Errorf("ColumnIndex(%q) = %d, want -1", miss, got)
		}
	}
	// Repeated lookups stay correct once the index is warm.
	for i := 0; i < 3; i++ {
		if tbl.ColumnIndex("iD") != 0 || tbl.ColumnIndex("nope") != -1 {
			t.Fatal("warm index lookup diverged")
		}
	}
}

func TestColumnIndexDuplicateNamesFirstWins(t *testing.T) {
	tbl := New("dup", Schema{
		{Name: "X", Kind: KindInt},
		{Name: "x", Kind: KindFloat},
	})
	for _, name := range []string{"x", "X", "x "} {
		if got, ref := tbl.ColumnIndex(name), tbl.Schema.ColumnIndex(name); got != ref {
			t.Errorf("ColumnIndex(%q) = %d, linear scan = %d", name, got, ref)
		}
	}
	if tbl.ColumnIndex("x") != 0 {
		t.Fatal("duplicate folded names must resolve to the first column")
	}
}

// TestValueAppendKeyMatchesKey pins the key encoding byte for byte, including
// the int/integral-float unification the hash joins rely on.
func TestValueAppendKeyMatchesKey(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "\x00n"},
		{NewInt(42), "\x00i42"},
		{NewInt(-7), "\x00i-7"},
		{NewFloat(42), "\x00i42"},  // integral float unifies with int
		{NewFloat(-0.0), "\x00i0"}, // negative zero is integral
		{NewFloat(2.5), "\x00f2.5"},
		{NewString("a b"), "\x00sa b"},
		{NewBool(true), "\x00b1"},
		{NewBool(false), "\x00b0"},
	}
	for _, c := range cases {
		if got := c.v.Key(); got != c.want {
			t.Errorf("Key(%v) = %q, want %q", c.v, got, c.want)
		}
		if got := string(c.v.AppendKey(nil)); got != c.want {
			t.Errorf("AppendKey(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	r := Row{NewInt(1), NewString("x"), Null}
	if got, want := string(r.AppendKey(nil)), r.Key(); got != want {
		t.Errorf("Row.AppendKey = %q, Row.Key = %q", got, want)
	}
}

// TestRowAppendKeyNoAllocs pins the dedup/join key path: appending into a
// pre-sized buffer must not allocate (this is what removed the per-row string
// materialization from the hash-join and DISTINCT loops).
func TestRowAppendKeyNoAllocs(t *testing.T) {
	r := Row{NewInt(123456), NewFloat(3.25), NewString("somegenre"), NewBool(true)}
	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = r.AppendKey(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("Row.AppendKey allocates %v times per run, want 0", allocs)
	}
}

// BenchmarkRowKey contrasts the legacy per-row string materialization against
// the buffer-reusing AppendKey used on the join/dedup hot path.
func BenchmarkRowKey(b *testing.B) {
	r := Row{NewInt(123456), NewFloat(3.25), NewString("somegenre"), NewBool(true)}
	b.Run("Key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = r.Key()
		}
	})
	b.Run("AppendKey", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 128)
		for i := 0; i < b.N; i++ {
			buf = r.AppendKey(buf[:0])
		}
	})
}

func TestBitmapAppendRows(t *testing.T) {
	b := NewBitmap(200)
	want := []int32{0, 63, 64, 65, 127, 199}
	for i := len(want) - 1; i >= 0; i-- {
		b.Set(int(want[i]))
	}
	got := b.AppendRows([]int32{-1})
	if len(got) != len(want)+1 || got[0] != -1 {
		t.Fatalf("AppendRows = %v, want -1 then %v", got, want)
	}
	for i, w := range want {
		if got[i+1] != w {
			t.Fatalf("AppendRows = %v, want -1 then %v", got, want)
		}
	}
	if rows := NewBitmap(0).AppendRows(nil); len(rows) != 0 {
		t.Fatalf("empty bitmap yields %v", rows)
	}
}

// refColumns builds every column of schema from rows at once: the routine that
// derived a table's columnar view from its rows when a table still kept rows,
// kept as the reference incremental AppendRow and Select are held to.
func refColumns(schema Schema, rows []Row) []ColumnData {
	cols := make([]ColumnData, len(schema))
	n := len(rows)
	for ci := range schema {
		out, kind := &cols[ci], schema[ci].Kind
		out.Kind = kind
		switch kind {
		case KindInt:
			out.Ints = make([]int64, n)
		case KindFloat:
			out.Floats = make([]float64, n)
		case KindString:
			out.Codes = make([]int32, n)
			out.Dict = &Dict{}
		case KindBool:
			out.Bools = make([]bool, n)
		}
		zones := make([]Zone, (n+ZoneChunkRows-1)/ZoneChunkRows)
		for i, r := range rows {
			v := r[ci]
			z := &zones[i/ZoneChunkRows]
			if v.Kind == KindNull {
				if out.Nulls == nil {
					out.Nulls = NewBitmap(n)
				}
				out.Nulls.Set(i)
				if out.Codes != nil {
					out.Codes[i] = -1
				}
				z.HasNull = true
				continue
			}
			switch kind {
			case KindInt:
				out.Ints[i] = v.Int
				updateZone(z, float64(v.Int))
			case KindFloat:
				out.Floats[i] = v.Float
				updateZone(z, v.Float)
			case KindString:
				out.Codes[i] = out.Dict.add(v.Str)
				z.HasValue = true
			case KindBool:
				out.Bools[i] = v.Bool
				z.HasValue = true
			}
		}
		out.Zones = zones
	}
	return cols
}

// sameColumns reports the first difference between two column lists: vectors
// (floats by bit pattern), null bitmaps, dictionaries and zones.
func sameColumns(got, want []ColumnData) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d columns, want %d", len(got), len(want))
	}
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	zoneBits := func(zs []Zone) []string {
		out := make([]string, len(zs))
		for i, z := range zs {
			out[i] = fmt.Sprintf("%x %x %v %v", math.Float64bits(z.Min), math.Float64bits(z.Max), z.HasValue, z.HasNull)
		}
		return out
	}
	for ci := range want {
		g, w := &got[ci], &want[ci]
		var gd, wd []string
		if w.Dict != nil {
			wd = w.Dict.Strs
		}
		if g.Dict != nil {
			gd = g.Dict.Strs
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"kind", g.Kind, w.Kind},
			{"nulls", []uint64(g.Nulls), []uint64(w.Nulls)},
			{"ints", g.Ints, w.Ints},
			{"floats", bits(g.Floats), bits(w.Floats)},
			{"bools", g.Bools, w.Bools},
			{"codes", g.Codes, w.Codes},
			{"dict", gd, wd},
			{"zones", zoneBits(g.Zones), zoneBits(w.Zones)},
		} {
			if fmt.Sprint(f.got) != fmt.Sprint(f.want) {
				return fmt.Errorf("column %d %s differ:\n got %v\nwant %v", ci, f.name, f.got, f.want)
			}
		}
		if (g.Nulls == nil) != (w.Nulls == nil) {
			return fmt.Errorf("column %d: Nulls nil = %v, want %v", ci, g.Nulls == nil, w.Nulls == nil)
		}
		for s, code := range wd {
			if c, ok := g.Dict.Code(wd[s]); !ok || int(c) != s {
				return fmt.Errorf("column %d: Code(%q) = %d,%v, want %d", ci, code, c, ok, s)
			}
		}
	}
	return nil
}

// randomRows draws n rows of every kind: NULLs in runs that cross chunk
// boundaries, floats among NaN, ±Inf and -0, strings from a small domain so
// that codes repeat.
func randomRows(rng *rand.Rand, n int) (Schema, []Row) {
	schema := Schema{
		{Name: "i", Kind: KindInt}, {Name: "f", Kind: KindFloat}, {Name: "s", Kind: KindString},
		{Name: "b", Kind: KindBool}, {Name: "dense", Kind: KindInt},
	}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 2.5, -1e300}
	rows := make([]Row, n)
	nullRun := make([]int, len(schema)) // cells of the column's current NULL run still to come
	for i := range rows {
		r := Row{
			NewInt(rng.Int63() - 1<<62),
			NewFloat(floats[rng.Intn(len(floats))] + float64(rng.Intn(3))),
			NewString(fmt.Sprintf("s%d", rng.Intn(40))),
			NewBool(rng.Intn(2) == 0),
			NewInt(int64(i)),
		}
		for ci := range r[:4] { // "dense" never holds a NULL: its Nulls stays nil
			if nullRun[ci] == 0 && rng.Intn(300) == 0 {
				nullRun[ci] = 1 + rng.Intn(2*ZoneChunkRows)
			}
			if nullRun[ci] > 0 {
				nullRun[ci]--
				r[ci] = Null
			}
		}
		rows[i] = r
	}
	return schema, rows
}

// TestAppendRowMatchesReferenceBuild: columns grown a row at a time are the
// columns the reference builds from all rows at once, at every size around the
// chunk and bitmap-word boundaries and over several chunks.
func TestAppendRowMatchesReferenceBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 1, 63, 64, 65, ZoneChunkRows - 1, ZoneChunkRows, ZoneChunkRows + 1, 3*ZoneChunkRows + 517} {
		schema, rows := randomRows(rng, n)
		tbl := New("r", schema)
		for _, r := range rows {
			tbl.AppendRow(r)
		}
		if tbl.NumRows() != n || tbl.Columns().NumRows != n {
			t.Fatalf("n=%d: NumRows = %d / %d", n, tbl.NumRows(), tbl.Columns().NumRows)
		}
		if err := sameColumns(tbl.Columns().Cols, refColumns(schema, rows)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, r := range rows {
			if got := tbl.Row(i); got.Key() != r.Key() {
				t.Fatalf("n=%d: Row(%d) = %v, appended %v", n, i, got, r)
			}
		}
	}
}

// TestSelectMatchesReferenceBuild: Select of any index list — repeats, indices
// out of range (skipped), nothing at all — is the table the reference builds
// from the selected rows: its own zones, and its own dictionaries in
// first-appearance order over the selection.
func TestSelectMatchesReferenceBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	schema, rows := randomRows(rng, 2*ZoneChunkRows+100)
	tbl := New("r", schema)
	for _, r := range rows {
		tbl.AppendRow(r)
	}
	for _, k := range []int{0, 1, 70, ZoneChunkRows + 3, 3 * ZoneChunkRows} {
		indices := make([]int, k)
		var picked []Row
		for j := range indices {
			indices[j] = rng.Intn(len(rows)+20) - 10
			if i := indices[j]; i >= 0 && i < len(rows) {
				picked = append(picked, rows[i])
			}
		}
		sel := tbl.Select(indices)
		if sel.NumRows() != len(picked) || sel.Name != tbl.Name || sel.Schema.String() != tbl.Schema.String() {
			t.Fatalf("k=%d: Select = %s %q with %d rows, want %d", k, sel.Name, sel.Schema, sel.NumRows(), len(picked))
		}
		if err := sameColumns(sel.Columns().Cols, refColumns(schema, picked)); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
	if err := sameColumns(tbl.Columns().Cols, refColumns(schema, rows)); err != nil {
		t.Fatalf("Select changed its source: %v", err)
	}
}

// TestCSVRoundTripColumns: ReadCSV(WriteCSV(t)) is t column for column, and
// writing it again gives the same bytes. (A NULL string is the one cell CSV
// cannot carry — it reads back as the empty string — so the table has none.)
func TestCSVRoundTripColumns(t *testing.T) {
	schema, rows := randomRows(rand.New(rand.NewSource(5)), 2*ZoneChunkRows+9)
	tbl := New("r", schema)
	for _, r := range rows {
		if r[2].IsNull() {
			r[2] = NewString("")
		}
		tbl.AppendRow(r)
	}
	var first bytes.Buffer
	if err := tbl.WriteCSV(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("r", bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameColumns(back.Columns().Cols, tbl.Columns().Cols); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := back.WriteCSV(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("a table read back from CSV writes different CSV")
	}
}
