package table

import (
	"fmt"
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
		for ri, r := range tbl.Rows {
			got, want := cs.Cols[ci].Value(ri), r[ci]
			if got.Key() != want.Key() {
				t.Fatalf("col %d row %d: %v != %v", ci, ri, got, want)
			}
		}
	}
}

// columnsPanic is the message Columns panics with on tbl ("" if it does not).
func columnsPanic(tbl *Table) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	tbl.Columns()
	return ""
}

// TestColumnsPanicsOnKindMismatch: a cell that is neither NULL nor of its
// column's declared kind is a programming error the columnar view refuses,
// naming table, column, row and both kinds; NULLs are no mismatch.
func TestColumnsPanicsOnKindMismatch(t *testing.T) {
	tbl := New("m", Schema{{Name: "ok", Kind: KindString}, {Name: "x", Kind: KindInt}})
	tbl.AppendRow(Row{NewString("a"), NewInt(1)})
	tbl.AppendRow(Row{Null, Null})
	if msg := columnsPanic(tbl); msg != "" {
		t.Fatalf("NULL cells panicked: %s", msg)
	}
	tbl.AppendRow(Row{NewString("b"), NewString("oops")})
	if got, want := columnsPanic(tbl), "table m: column x row 2 holds a string, declared int"; got != want {
		t.Fatalf("panic = %q, want %q", got, want)
	}
}

// TestColumnsPanicsOnNullKindColumn: no cell can hold a value of kind null, so
// a column declared that way is refused too, whatever it holds.
func TestColumnsPanicsOnNullKindColumn(t *testing.T) {
	tbl := New("n", Schema{{Name: "v", Kind: KindNull}})
	tbl.AppendRow(Row{Null})
	if got, want := columnsPanic(tbl), "table n: column v is declared null, which no cell can hold"; got != want {
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

// BenchmarkColumnsBuild measures the one-time cost of deriving the columnar
// view (paid on first query after load/append, then cached).
func BenchmarkColumnsBuild(b *testing.B) {
	tbl := New("b", Schema{
		{Name: "id", Kind: KindInt},
		{Name: "genre", Kind: KindString},
	})
	for i := 0; i < 50_000; i++ {
		tbl.AppendRow(Row{NewInt(int64(i)), NewString(fmt.Sprintf("g%d", i%32))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.invalidate()
		_ = tbl.Columns()
	}
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
