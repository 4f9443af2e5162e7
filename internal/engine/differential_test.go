package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// randomDB builds a small two-table database with random integer data.
func randomDB(rng *rand.Rand) *table.Database {
	a := table.New("ta", table.Schema{
		{Name: "id", Kind: table.KindInt},
		{Name: "x", Kind: table.KindInt},
		{Name: "y", Kind: table.KindInt},
	})
	for i := 0; i < 20+rng.Intn(20); i++ {
		a.AppendRow(table.Row{
			table.NewInt(int64(i)),
			table.NewInt(int64(rng.Intn(10))),
			table.NewInt(int64(rng.Intn(10))),
		})
	}
	b := table.New("tb", table.Schema{
		{Name: "ta_id", Kind: table.KindInt},
		{Name: "z", Kind: table.KindInt},
	})
	for i := 0; i < 20+rng.Intn(20); i++ {
		b.AppendRow(table.Row{
			table.NewInt(int64(rng.Intn(a.NumRows() + 5))), // some dangling
			table.NewInt(int64(rng.Intn(10))),
		})
	}
	db := table.NewDatabase()
	db.Add(a)
	db.Add(b)
	return db
}

// naiveSingleTableCount evaluates "SELECT * FROM ta WHERE x <op> c [AND/OR y <op2> c2]"
// with an independent interpreter, for differential testing.
type simplePred struct {
	col string
	op  string
	val int64
}

func (p simplePred) eval(t *table.Table, row table.Row) bool {
	v := row[t.ColumnIndex(p.col)].Int
	switch p.op {
	case ">":
		return v > p.val
	case "<":
		return v < p.val
	case "=":
		return v == p.val
	case ">=":
		return v >= p.val
	case "<=":
		return v <= p.val
	case "<>":
		return v != p.val
	}
	return false
}

// TestDifferentialSingleTable compares the engine against a hand-rolled
// evaluator over many random predicates.
func TestDifferentialSingleTable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ops := []string{">", "<", "=", ">=", "<=", "<>"}
	cols := []string{"x", "y"}
	for trial := 0; trial < 200; trial++ {
		db := randomDB(rng)
		ta := db.Table("ta")
		p1 := simplePred{col: cols[rng.Intn(2)], op: ops[rng.Intn(len(ops))], val: int64(rng.Intn(12) - 1)}
		p2 := simplePred{col: cols[rng.Intn(2)], op: ops[rng.Intn(len(ops))], val: int64(rng.Intn(12) - 1)}
		conn := "AND"
		if rng.Intn(2) == 0 {
			conn = "OR"
		}
		sql := fmt.Sprintf("SELECT * FROM ta WHERE %s %s %d %s %s %s %d",
			p1.col, p1.op, p1.val, conn, p2.col, p2.op, p2.val)

		want := 0
		for i := 0; i < ta.NumRows(); i++ {
			row := ta.Row(i)
			a, b := p1.eval(ta, row), p2.eval(ta, row)
			if (conn == "AND" && a && b) || (conn == "OR" && (a || b)) {
				want++
			}
		}
		res, err := Execute(db, sqlparse.MustParse(sql))
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.Table.NumRows() != want {
			t.Fatalf("%s: engine %d rows, naive %d", sql, res.Table.NumRows(), want)
		}
	}
}

// TestDifferentialJoinPaths verifies the explicit-JOIN and implicit-join
// code paths agree, and both agree with a nested-loop count.
func TestDifferentialJoinPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		db := randomDB(rng)
		zCut := rng.Intn(10)
		explicit := fmt.Sprintf(
			"SELECT ta.id, tb.z FROM ta JOIN tb ON ta.id = tb.ta_id WHERE tb.z > %d", zCut)
		implicit := fmt.Sprintf(
			"SELECT ta.id, tb.z FROM ta, tb WHERE ta.id = tb.ta_id AND tb.z > %d", zCut)

		r1, err := Execute(db, sqlparse.MustParse(explicit))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Execute(db, sqlparse.MustParse(implicit))
		if err != nil {
			t.Fatal(err)
		}
		if r1.Table.NumRows() != r2.Table.NumRows() {
			t.Fatalf("join paths disagree: explicit %d vs implicit %d",
				r1.Table.NumRows(), r2.Table.NumRows())
		}
		// Nested-loop ground truth.
		ta, tb := db.Table("ta"), db.Table("tb")
		want := 0
		for i := 0; i < ta.NumRows(); i++ {
			for j := 0; j < tb.NumRows(); j++ {
				if ta.Cell(i, 0).Int == tb.Cell(j, 0).Int && tb.Cell(j, 1).Int > int64(zCut) {
					want++
				}
			}
		}
		if r1.Table.NumRows() != want {
			t.Fatalf("engine %d vs nested-loop %d", r1.Table.NumRows(), want)
		}
	}
}

// TestSubsetMonotonicityProperty: for monotone SPJ queries, executing over a
// subset of the database returns a subset of the full results.
func TestSubsetMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng)
		sql := fmt.Sprintf("SELECT ta.id, tb.z FROM ta JOIN tb ON ta.id = tb.ta_id WHERE ta.x > %d", rng.Intn(8))
		full, err := Execute(db, sqlparse.MustParse(sql))
		if err != nil {
			t.Fatal(err)
		}
		// Random subset of each table.
		sub := table.NewSubset()
		for _, name := range db.TableNames() {
			n := db.Table(name).NumRows()
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					sub.Add(table.RowID{Table: name, Row: i})
				}
			}
		}
		part, err := Execute(sub.Materialize(db), sqlparse.MustParse(sql))
		if err != nil {
			t.Fatal(err)
		}
		fullKeys := map[string]int{}
		for _, r := range full.Table.Rows {
			fullKeys[r.Key()]++
		}
		for _, r := range part.Table.Rows {
			if fullKeys[r.Key()] == 0 {
				t.Fatalf("subset produced row absent from full result: %v", r)
			}
			fullKeys[r.Key()]--
		}
	}
}

// TestAggregateConsistencyWithManualGrouping cross-checks GROUP BY results
// against a manual grouping over the same filtered rows.
func TestAggregateConsistencyWithManualGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		db := randomDB(rng)
		cut := rng.Intn(8)
		sql := fmt.Sprintf("SELECT x, COUNT(*), SUM(y) FROM ta WHERE y >= %d GROUP BY x", cut)
		res, err := Execute(db, sqlparse.MustParse(sql))
		if err != nil {
			t.Fatal(err)
		}
		type agg struct {
			n   int64
			sum float64
		}
		want := map[int64]*agg{}
		for i, ta := 0, db.Table("ta"); i < ta.NumRows(); i++ {
			r := ta.Row(i)
			if r[2].Int < int64(cut) {
				continue
			}
			a := want[r[1].Int]
			if a == nil {
				a = &agg{}
				want[r[1].Int] = a
			}
			a.n++
			a.sum += float64(r[2].Int)
		}
		if res.Table.NumRows() != len(want) {
			t.Fatalf("groups %d vs %d", res.Table.NumRows(), len(want))
		}
		for _, r := range res.Table.Rows {
			a := want[r[0].Int]
			if a == nil {
				t.Fatalf("unexpected group %v", r[0])
			}
			if r[1].Int != a.n || r[2].Float != a.sum {
				t.Fatalf("group %v: engine (%v,%v) vs manual (%v,%v)",
					r[0], r[1], r[2], a.n, a.sum)
			}
		}
	}
}

// TestDistinctIdempotent: applying DISTINCT twice equals once; result sizes
// are bounded by the non-distinct result.
func TestDistinctIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng)
		plain, err := Execute(db, sqlparse.MustParse("SELECT x FROM ta"))
		if err != nil {
			t.Fatal(err)
		}
		distinct, err := Execute(db, sqlparse.MustParse("SELECT DISTINCT x FROM ta"))
		if err != nil {
			t.Fatal(err)
		}
		if distinct.Table.NumRows() > plain.Table.NumRows() {
			t.Fatal("DISTINCT grew the result")
		}
		seen := map[string]bool{}
		for _, r := range distinct.Table.Rows {
			k := r.Key()
			if seen[k] {
				t.Fatal("DISTINCT produced duplicates")
			}
			seen[k] = true
		}
	}
}

// TestOrderByIsSorted verifies ordering over random data.
func TestOrderByIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng)
		res, err := Execute(db, sqlparse.MustParse("SELECT x, y FROM ta ORDER BY x DESC, y ASC"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < res.Table.NumRows(); i++ {
			prev, cur := res.Table.Rows[i-1], res.Table.Rows[i]
			if prev[0].Int < cur[0].Int {
				t.Fatal("primary key not descending")
			}
			if prev[0].Int == cur[0].Int && prev[1].Int > cur[1].Int {
				t.Fatal("secondary key not ascending within ties")
			}
		}
	}
}
