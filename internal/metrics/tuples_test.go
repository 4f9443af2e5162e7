package metrics_test

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"asqprl/internal/datagen"
	"asqprl/internal/engine"
	"asqprl/internal/metrics"
	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// refTuples, refTuple and refTupleKey are the normalisation as it stood when
// it built a string key and called sort.Slice for every lineage row, bodies
// verbatim. They are the oracle: metrics.Tuples must give the same tuples in
// the same order.
func refTuples(lineage [][]table.RowID) [][]table.RowID {
	seen := make(map[string]bool, len(lineage))
	var out [][]table.RowID
	for _, rows := range lineage {
		tuple := refTuple(rows)
		key := refTupleKey(tuple)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, tuple)
	}
	return out
}

func refTuple(rows []table.RowID) []table.RowID {
	cp := append([]table.RowID(nil), rows...)
	sort.Slice(cp, func(a, b int) bool {
		if cp[a].Table != cp[b].Table {
			return cp[a].Table < cp[b].Table
		}
		return cp[a].Row < cp[b].Row
	})
	out := cp[:0]
	for i, r := range cp {
		if i > 0 && r == cp[i-1] {
			continue
		}
		out = append(out, r)
	}
	return out
}

func refTupleKey(tuple []table.RowID) string {
	var b strings.Builder
	for _, r := range tuple {
		b.WriteString(r.Table)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(r.Row))
		b.WriteByte('|')
	}
	return b.String()
}

// fuzzLineage draws a lineage: rows of one to three ids as a join's are, over
// table names of which one is a prefix of another and a few row numbers, mixed
// with rows that repeat an earlier one, its reverse (a self-join's
// (t:1,t:2)/(t:2,t:1)), empty rows, and rows of up to forty ids that repeat
// ids inside themselves and outgrow the insertion sort slices.SortFunc uses on
// short inputs.
func fuzzLineage(rng *rand.Rand) [][]table.RowID {
	names := []string{"t", "title", "cast_info", "T"}
	id := func() table.RowID {
		return table.RowID{Table: names[rng.Intn(len(names))], Row: rng.Intn(6) - 1}
	}
	lineage := make([][]table.RowID, rng.Intn(300))
	for i := range lineage {
		var row []table.RowID
		switch k := rng.Intn(10); {
		case k < 2 && i > 0:
			row = slices.Clone(lineage[rng.Intn(i)])
			if k == 1 {
				slices.Reverse(row)
			}
		case k == 2:
			row = []table.RowID{}
		case k == 3:
			for range 9 + rng.Intn(32) {
				row = append(row, id())
			}
		default:
			for range 1 + rng.Intn(3) {
				row = append(row, id())
			}
		}
		lineage[i] = row
	}
	return lineage
}

func sameTuples(a, b [][]table.RowID) bool {
	return slices.EqualFunc(a, b, func(x, y []table.RowID) bool { return slices.Equal(x, y) })
}

// FuzzTuples holds metrics.Tuples and metrics.Tuple to the string-key
// reference: identical tuples in identical order, the input untouched.
func FuzzTuples(f *testing.F) {
	for s := int64(0); s < 32; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		lineage := fuzzLineage(rand.New(rand.NewSource(seed)))
		before := make([][]table.RowID, len(lineage))
		for i, rows := range lineage {
			before[i] = slices.Clone(rows)
		}
		got, want := metrics.Tuples(lineage), refTuples(lineage)
		if !sameTuples(got, want) {
			t.Fatalf("Tuples(%v)\n= %v\nreference %v", lineage, got, want)
		}
		for i, rows := range lineage {
			if tuple, ref := metrics.Tuple(rows), refTuple(rows); !slices.Equal(tuple, ref) {
				t.Fatalf("Tuple(%v) = %v, reference %v", rows, tuple, ref)
			}
			if !slices.Equal(rows, before[i]) {
				t.Fatalf("lineage row %d changed from %v to %v", i, before[i], rows)
			}
		}
	})
}

// BenchmarkTuples normalises the lineage of a two-relation join at
// train_pipeline's data scale, whose rows (title, cast_info) are out of order.
func BenchmarkTuples(b *testing.B) {
	db := datagen.IMDB(0.2, 1)
	stmt := sqlparse.MustParse("SELECT * FROM title t JOIN cast_info c ON c.title_id = t.id WHERE t.production_year > 1990")
	res, err := engine.LineageContext(context.Background(), db, stmt, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Tuples(res.Lineage)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(res.Lineage)), "ns/row")
}
