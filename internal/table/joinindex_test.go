package table

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// joinIndexFixture has one column per key kind and index layout, each with
// duplicates and NULLs: compact ints (dense), ints spread over the whole int64
// range (hash), floats mixing integral, fractional, negative-zero and
// two NaN payloads (hash), dictionary strings and bools (dense) — and two dense
// columns whose direct-address range holds keys no row has: ints with gaps, and
// a bool column that is never true.
func joinIndexFixture() *Table {
	t := New("ji", Schema{
		{Name: "dense", Kind: KindInt},
		{Name: "sparse", Kind: KindInt},
		{Name: "f", Kind: KindFloat},
		{Name: "s", Kind: KindString},
		{Name: "b", Kind: KindBool},
		{Name: "gaps", Kind: KindInt},
		{Name: "nevertrue", Kind: KindBool},
	})
	sparse := []int64{math.MinInt64, math.MaxInt64, 0, -7_000_000_011, 7_000_000_011, 1 << 40}
	floats := []float64{
		3, 2.5, math.Copysign(0, -1), 0, -1.25, 1e18, math.Inf(1),
		math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0bad),
	}
	strs := []string{"drama", "comedy", "noir", ""}
	for i := 0; i < 3000; i++ {
		row := Row{
			NewInt(int64(100 + i%37)),
			NewInt(sparse[i%len(sparse)] + int64(i%3)),
			NewFloat(floats[i%len(floats)]),
			NewString(strs[i%len(strs)]),
			NewBool(i%5 < 2),
			NewInt(int64(200 + 3*(i%20))),
			NewBool(false),
		}
		for ci := range row {
			if (i+ci)%11 == 0 {
				row[ci] = Null
			}
		}
		t.AppendRow(row)
	}
	return t
}

// TestJoinIndexMatchesBruteForce checks every column's index against a map
// from Value.Key — the row engine's definition of join equality — to the
// ascending row ids holding that key: same groups, same order, no NULLs, and
// nothing for keys the column does not hold.
func TestJoinIndexMatchesBruteForce(t *testing.T) {
	tbl := joinIndexFixture()
	cs := tbl.Columns()
	wantLayout := []string{"dense", "hash", "hash", "dense", "dense", "dense", "dense"}
	for ci, col := range tbl.Schema {
		want := map[string][]int32{}
		for ri := 0; ri < tbl.NumRows(); ri++ {
			r := tbl.Row(ri)
			if v := r[ci]; !v.IsNull() {
				want[v.Key()] = append(want[v.Key()], int32(ri))
			}
		}
		ix, built := cs.JoinIndex(ci)
		if !built {
			t.Errorf("%s: first JoinIndex call did not report the build", col.Name)
		}
		if again, built := cs.JoinIndex(ci); again != ix || built {
			t.Errorf("%s: second JoinIndex call rebuilt (built=%v)", col.Name, built)
		}
		if got := ix.Layout(); got != wantLayout[ci] {
			t.Errorf("%s: layout %s, want %s", col.Name, got, wantLayout[ci])
		}
		keyer := cs.Cols[ci].JoinKeyer(nil)
		seen := map[string]bool{}
		for ri := 0; ri < tbl.NumRows(); ri++ {
			r := tbl.Row(ri)
			k, ok := keyer(int32(ri))
			if ok == r[ci].IsNull() {
				t.Fatalf("%s row %d: keyer ok=%v for %v", col.Name, ri, ok, r[ci])
			}
			if !ok || seen[r[ci].Key()] {
				continue
			}
			seen[r[ci].Key()] = true
			if got := ix.Lookup(k); !reflect.DeepEqual(got, want[r[ci].Key()]) {
				t.Fatalf("%s: Lookup(%v) for %v = %v, want %v", col.Name, k, r[ci], got, want[r[ci].Key()])
			}
		}
		if len(seen) != len(want) || ix.Distinct() != len(want) {
			t.Errorf("%s: index reached %d keys and reports %d distinct, brute force has %d",
				col.Name, len(seen), ix.Distinct(), len(want))
		}
		absent := []JoinKey{
			{TagNum, 99}, {TagNum, 137}, {TagNum, 5}, {TagNum, 1 << 62}, {TagNum, 201},
			FloatJoinKey(2.75), {TagStr, 4}, {TagBool, 2}, {Tag: TagMiss}, {Tag: TagNull},
		}
		if col.Name == "nevertrue" {
			absent = append(absent, JoinKey{TagBool, 1})
		}
		for _, k := range absent {
			if got := ix.Lookup(k); len(got) != 0 {
				t.Errorf("%s: Lookup(%v) = %v, want no rows", col.Name, k, got)
			}
		}

		// Runs is Lookup over a chunk: every row's key (a NULL cell as TagNull)
		// and the absent ones, each run the bounds of Lookup's slice in Rows().
		var tags []uint8
		var bits []uint64
		for ri := 0; ri < tbl.NumRows(); ri++ {
			k, ok := keyer(int32(ri))
			if !ok {
				k = JoinKey{Tag: TagNull}
			}
			tags, bits = append(tags, k.Tag), append(bits, k.Bits)
		}
		for _, k := range absent {
			tags, bits = append(tags, k.Tag), append(bits, k.Bits)
		}
		lo, hi := make([]int32, len(tags)), make([]int32, len(tags))
		ix.Runs(tags, bits, lo, hi)
		for i := range tags {
			want := ix.Lookup(JoinKey{tags[i], bits[i]})
			if got := ix.Rows()[lo[i]:hi[i]]; !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 || len(want) == 0 && lo[i]+hi[i] != 0 {
				t.Fatalf("%s: Runs finds %v (%d:%d) for key %d (%d, %#x), Lookup %v", col.Name, got, lo[i], hi[i], i, tags[i], bits[i], want)
			}
		}
		if ix.Unique() {
			t.Errorf("%s: Unique() with %d rows under %d keys", col.Name, len(ix.Rows()), ix.Distinct())
		}
	}

	// Keys unify across kinds exactly as Value.Key does: an integral float
	// probes an int column, and an int probes a float column.
	dense, _ := cs.JoinIndex(0)
	if got := dense.Lookup(FloatJoinKey(101)); len(got) == 0 || tbl.Cell(int(got[0]), 0).Int != 101 {
		t.Errorf("float 101 into the int index = %v", got)
	}
	floats, _ := cs.JoinIndex(2)
	if got := floats.Lookup(JoinKey{TagNum, 3}); len(got) == 0 || tbl.Cell(int(got[0]), 2).Float != 3 {
		t.Errorf("int 3 into the float index = %v", got)
	}
}

// TestNewJoinIndexOverSubset checks the per-query builder: only the given rows
// are indexed, in order, under whatever key the caller derives — here a
// TagHash over two columns, NULL in either excluding the row — and an empty
// subset indexes nothing.
func TestNewJoinIndexOverSubset(t *testing.T) {
	tbl := joinIndexFixture()
	cs := tbl.Columns()
	dense, str := cs.Cols[0].JoinKeyer(nil), cs.Cols[3].JoinKeyer(nil)
	key := func(ri int32) (JoinKey, bool) {
		a, okA := dense(ri)
		b, okB := str(ri)
		return JoinKey{TagHash, a.Bits*31 + b.Bits}, okA && okB
	}
	var subset []int32
	want := map[JoinKey][]int32{}
	for ri := int32(0); ri < int32(tbl.NumRows()); ri += 3 {
		subset = append(subset, ri)
		if k, ok := key(ri); ok {
			want[k] = append(want[k], ri)
		}
	}
	ix := NewJoinIndex(key, subset)
	if ix.Layout() != "hash" || ix.Distinct() != len(want) {
		t.Errorf("layout %s with %d distinct keys, want hash with %d", ix.Layout(), ix.Distinct(), len(want))
	}
	for k, rows := range want {
		if got := ix.Lookup(k); !reflect.DeepEqual(got, rows) {
			t.Fatalf("Lookup(%v) = %v, want %v", k, got, rows)
		}
	}
	if k, _ := key(1); len(want[k]) == 0 && len(ix.Lookup(k)) != 0 {
		t.Errorf("row 1 is outside the subset but its key %v is indexed", k)
	}
	if got := NewJoinIndex(key, nil).Lookup(JoinKey{TagHash, 0}); len(got) != 0 {
		t.Errorf("empty subset: Lookup = %v", got)
	}
}

// TestJoinIndexIntRange holds IntRange on a dense int index to the rows a scan
// keeps for lo <= cell <= hi — NULLs left out, grouped by key, ascending within
// a key — for ranges below, above, straddling and inside the keys, empty ones,
// single keys and the int64 extremes, over negative keys with gaps; and to
// ok = false wherever the index is not a dense int one.
func TestJoinIndexIntRange(t *testing.T) {
	tbl := New("r", Schema{{Name: "v", Kind: KindInt}})
	for i := 0; i < 3000; i++ {
		v := NewInt(int64((i*7919)%41 - 20)) // -20..20, unordered
		if v.Int == 3 || i%13 == 0 {
			v = Null // a key inside the range no row has, and NULL rows
		}
		tbl.AppendRow(Row{v})
	}
	ix, _ := tbl.Columns().JoinIndex(0)
	if ix.Layout() != "dense" {
		t.Fatalf("layout %s, want dense", ix.Layout())
	}
	const minI, maxI = math.MinInt64, math.MaxInt64
	for _, r := range [][2]int64{
		{-40, -21}, {21, 40}, // below, above
		{-25, -18}, {18, 25}, {-5, 7}, {-20, 20}, // straddling, inside, exactly the keys
		{5, 4}, {maxI, minI}, {3, 3}, // empty: lo > hi, and a key no row has
		{-7, -7}, {20, 20}, {-20, -20}, // single keys, the ends among them
		{minI, minI}, {maxI, maxI}, {minI, -19}, {19, maxI}, {minI, maxI},
	} {
		lo, hi := r[0], r[1]
		var want []int32
		for k := max(lo, -20); k <= min(hi, 20); k++ {
			for ri := 0; ri < tbl.NumRows(); ri++ {
				if c := tbl.Row(ri)[0]; !c.IsNull() && c.Int == k {
					want = append(want, int32(ri))
				}
			}
		}
		got, ok := ix.IntRange(lo, hi)
		if !ok || len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("IntRange(%d, %d) = %d rows (ok=%v), want %d", lo, hi, len(got), ok, len(want))
		}
	}

	fix := joinIndexFixture()
	for _, col := range []string{"sparse", "f", "s", "b"} { // hash int, float, string, bool
		ix, _ := fix.Columns().JoinIndex(fix.ColumnIndex(col))
		if rows, ok := ix.IntRange(minI, maxI); ok || rows != nil {
			t.Errorf("%s (%s layout): IntRange answered %d rows, ok=%v", col, ix.Layout(), len(rows), ok)
		}
	}
	dense := fix.Columns()
	hashed := NewJoinIndex(dense.Cols[0].JoinKeyer(nil), dense.Identity())
	if _, ok := hashed.IntRange(minI, maxI); ok {
		t.Error("a NewJoinIndex (hash layout) over an int column answered IntRange")
	}
}

// TestDenseSpreadDecidesLayout: the int column whose values span DenseSpread's
// limit exactly is the first the build indexes by hashing.
func TestDenseSpreadDecidesLayout(t *testing.T) {
	for _, spread := range []int64{0, 4*100 - 1, 4 * 100} {
		tbl := New("d", Schema{{Name: "v", Kind: KindInt}})
		for i := 0; i < 100; i++ {
			tbl.AppendRow(Row{NewInt(-50 + spread*int64(i%2))})
		}
		ix, _ := tbl.Columns().JoinIndex(0)
		dense := DenseSpread(-50, -50+spread, 100)
		if (ix.Layout() == "dense") != dense || dense != (spread < 400) {
			t.Errorf("spread %d over 100 rows: layout %s, DenseSpread %v", spread, ix.Layout(), dense)
		}
	}
}

func TestJoinIndexEmptyAndAllNull(t *testing.T) {
	tbl := New("e", Schema{{Name: "i", Kind: KindInt}, {Name: "s", Kind: KindString}, {Name: "f", Kind: KindFloat}})
	for pass := 0; pass < 2; pass++ { // empty table, then three all-NULL rows
		cs := tbl.Columns()
		for ci := range tbl.Schema {
			ix, _ := cs.JoinIndex(ci)
			for _, k := range []JoinKey{{TagNum, 0}, {TagStr, 0}, FloatJoinKey(0.5)} {
				if got := ix.Lookup(k); len(got) != 0 {
					t.Errorf("pass %d col %d: Lookup(%v) = %v on a column with no keys", pass, ci, k, got)
				}
				lo, hi := []int32{7}, []int32{7}
				if ix.Runs([]uint8{k.Tag}, []uint64{k.Bits}, lo, hi); lo[0] != 0 || hi[0] != 0 || len(ix.Rows()) != 0 {
					t.Errorf("pass %d col %d: Runs(%v) = %d:%d of %d rows on a column with no keys", pass, ci, k, lo[0], hi[0], len(ix.Rows()))
				}
			}
		}
		if got := len(cs.Identity()); got != tbl.NumRows() {
			t.Errorf("pass %d: identity has %d rows, table %d", pass, got, tbl.NumRows())
		}
		for i := 0; i < 3; i++ {
			tbl.AppendRow(Row{Null, Null, Null})
		}
	}
}

// TestJoinIndexInvalidatedByAppendRow: the index and the identity vector hang
// off the ColumnSet, so AppendRow drops them with the typed vectors and the
// next use sees the new row.
func TestJoinIndexInvalidatedByAppendRow(t *testing.T) {
	tbl := colFixture()
	old, _ := tbl.Columns().JoinIndex(0)
	oldIdent := tbl.Columns().Identity()
	if got := old.Lookup(JoinKey{TagNum, 3}); !reflect.DeepEqual(got, []int32{0}) {
		t.Fatalf("Lookup(3) = %v, want [0]", got)
	}
	tbl.AppendRow(Row{NewInt(3), NewFloat(0), NewString("noir"), NewBool(false)})
	fresh, built := tbl.Columns().JoinIndex(0)
	if !built || fresh == old {
		t.Fatalf("index survived AppendRow (built=%v, same=%v)", built, fresh == old)
	}
	if got := fresh.Lookup(JoinKey{TagNum, 3}); !reflect.DeepEqual(got, []int32{0, 4}) {
		t.Errorf("Lookup(3) after append = %v, want [0 4]", got)
	}
	if got := old.Lookup(JoinKey{TagNum, 3}); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("the old index changed under its readers: Lookup(3) = %v", got)
	}
	if got := tbl.Columns().Identity(); len(got) != 5 || len(oldIdent) != 4 || got[4] != 4 {
		t.Errorf("identity after append = %v (before: %v)", got, oldIdent)
	}
}

// TestJoinIndexConcurrentFirstUse races many first users of one column's
// index (and of the identity vector): exactly one of them builds, and all of
// them get the same immutable result. Run under -race.
func TestJoinIndexConcurrentFirstUse(t *testing.T) {
	tbl := joinIndexFixture()
	cs := tbl.Columns()
	const users = 16
	var builds atomic.Int32
	got := make([]*JoinIndex, users)
	idents := make([][]int32, users)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ix, built := cs.JoinIndex(1)
			if built {
				builds.Add(1)
			}
			got[u] = ix
			idents[u] = cs.Identity()
			if len(ix.Lookup(JoinKey{TagNum, 1<<40 + 2})) == 0 { // rows 5, 11, 17, ...
				t.Errorf("user %d: index missing a key every build holds", u)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds observed, want exactly 1", n)
	}
	for u := 1; u < users; u++ {
		if got[u] != got[0] || &idents[u][0] != &idents[0][0] {
			t.Fatalf("user %d got a different index or identity vector", u)
		}
	}
}

// BenchmarkJoinIndexBuild measures the one-time cost of both layouts over a
// 50 000-row column (paid by the first join on the column, then cached).
func BenchmarkJoinIndexBuild(b *testing.B) {
	tbl := New("b", Schema{{Name: "dense", Kind: KindInt}, {Name: "sparse", Kind: KindInt}})
	for i := 0; i < 50_000; i++ {
		tbl.AppendRow(Row{NewInt(int64(i / 4)), NewInt(int64(i/4) * 1_000_003)})
	}
	cs := tbl.Columns()
	for ci, name := range []string{"dense", "hash"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = buildJoinIndex(&cs.Cols[ci], cs.Identity())
			}
		})
	}
}

// TestJoinKeyerTranslatesProbeCodes: a string column keyed for lookups among
// another dictionary's keys passes each code through xlat — the translated code
// keys as TagStr, an absent one (-1) as TagMiss, which no index holds, and a
// NULL cell yields no key without asking.
func TestJoinKeyerTranslatesProbeCodes(t *testing.T) {
	tb := New("p", Schema{{Name: "s", Kind: KindString}})
	for _, v := range []Value{NewString("a"), NewString("b"), Null, NewString("a")} {
		tb.AppendRow(Row{v})
	}
	asked := 0
	keyer := tb.Columns().Cols[0].JoinKeyer(func(code int32) int32 {
		asked++
		return map[int32]int32{0: 7, 1: -1}[code]
	})
	for ri, want := range []struct {
		key JoinKey
		ok  bool
	}{{JoinKey{TagStr, 7}, true}, {JoinKey{Tag: TagMiss}, true}, {JoinKey{}, false}, {JoinKey{TagStr, 7}, true}} {
		if k, ok := keyer(int32(ri)); k != want.key || ok != want.ok {
			t.Errorf("row %d: key %+v ok=%v, want %+v ok=%v", ri, k, ok, want.key, want.ok)
		}
	}
	if asked != 3 {
		t.Errorf("xlat asked %d times, want once per non-NULL row (3)", asked)
	}
}
