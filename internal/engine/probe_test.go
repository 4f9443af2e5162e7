package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"asqprl/internal/sqlparse"
	"asqprl/internal/table"
)

// probeDB is a probe table p (k = its row number, n rows) and a build table d
// whose id is unique and whose f numbers its rows: d.f < m keeps m candidates,
// each matched by one row of p. f is a float column, which no index range
// serves, so d is scanned whole and gives p no keys: all n rows of p probe.
func probeDB(n int) *table.Database {
	p := table.New("p", table.Schema{{Name: "k", Kind: table.KindInt}})
	d := table.New("d", table.Schema{{Name: "id", Kind: table.KindInt}, {Name: "f", Kind: table.KindFloat}})
	for i := 0; i < n; i++ {
		p.AppendRow(table.Row{table.NewInt(int64(i))})
		d.AppendRow(table.Row{table.NewInt(int64(i)), table.NewFloat(float64(i))})
	}
	db := table.NewDatabase()
	db.Add(p)
	db.Add(d)
	return db
}

// TestProbeAllocsFollowMatches: a probe step allocates its matcher, the
// candidate bitmap and its output columns — a handful of objects, whether 5 000
// or 50 000 rows probe and whether 50 or 5 000 of them match; nothing is
// allocated per probe row or per chunk (give or take the pooled scratch). The
// bound holds without the race detector, which makes sync.Pool drop the
// scratch at random; under it the probes still run and answer.
func TestProbeAllocsFollowMatches(t *testing.T) {
	allocs := func(probeRows, matches int) float64 {
		step, n := probeStep(t, probeDB(probeRows), fmt.Sprintf("SELECT * FROM p JOIN d ON p.k = d.id WHERE d.f < %d", matches))
		if n != probeRows {
			t.Fatalf("%d probe rows, want %d", n, probeRows)
		}
		return testing.AllocsPerRun(10, func() {
			if out, err := step(Options{}); err != nil || out.n != matches {
				t.Fatalf("%v rows, %v; want %d", out, err, matches)
			}
		})
	}
	few, many, short := allocs(50_000, 50), allocs(50_000, 5_000), allocs(5_000, 50)
	if raceEnabled {
		return
	}
	if few > 20 || many > few+6 || few > short+6 { // 11 each; a scratch the pool dropped is 4 more
		t.Fatalf("50 000 probe rows allocate %v times for 50 matches and %v for 5 000, 5 000 probe rows %v times; want the same handful", few, many, short)
	}
}

// TestProbeUniqueIndexAddressesAbsentKeys: a one-row-per-key index reads a
// run's first row before its length, so a key the dense layout addresses and no
// row holds must come back as the empty run at 0 — a bool column that is never
// true (its group starts past the last row), an int primary key with gaps —
// with and without a candidate bitmap, for rows and for counts.
func TestProbeUniqueIndexAddressesAbsentKeys(t *testing.T) {
	p := table.New("p", table.Schema{{Name: "b", Kind: table.KindBool}, {Name: "k", Kind: table.KindInt}})
	for i := 0; i < 2*guardInterval+7; i++ {
		p.AppendRow(table.Row{table.NewBool(i%3 != 0), table.NewInt(int64(i % 12))})
	}
	d := table.New("d", table.Schema{{Name: "b", Kind: table.KindBool}, {Name: "k", Kind: table.KindInt}})
	d.AppendRow(table.Row{table.NewBool(false), table.NewInt(2)})
	d.AppendRow(table.Row{table.Null, table.NewInt(9)})
	db := table.NewDatabase()
	db.Add(p)
	db.Add(d)
	for _, sql := range []string{
		"SELECT * FROM p JOIN d ON p.b = d.b",
		"SELECT * FROM p JOIN d ON p.b = d.b WHERE d.k < 5",
		"SELECT p.k FROM p JOIN d ON p.k = d.k",
		"SELECT p.k FROM p JOIN d ON p.k = d.k AND p.b = d.b WHERE d.k > 0",
	} {
		stmt := sqlparse.MustParse(sql)
		want, err := rowExecute(context.Background(), db, stmt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecuteWith(db, stmt, Options{})
		if err != nil || resultFingerprint(got) != resultFingerprint(want) {
			t.Errorf("%s: %v, or an answer other than the row engine's %d rows", sql, err, want.Table.NumRows())
		}
		if n, err := CountContext(context.Background(), db, stmt, Options{}); err != nil || n != want.Table.NumRows() {
			t.Errorf("%s: counted %d (%v), want %d", sql, n, err, want.Table.NumRows())
		}
	}
}

// TestProbeChunkBudgetExact: the intermediate budget, settled per chunk and
// checked per probe row inside it, trips iff the step emits more rows than
// MaxIntermediateRows — at exactly the join's size it does not, at one less it
// does — and a key whose fan-out fills the room left stops its chunk: the rows
// after it write nothing.
func TestProbeChunkBudgetExact(t *testing.T) {
	const fan, hot = 5_000, 10
	p := table.New("p", table.Schema{{Name: "k", Kind: table.KindInt}})
	for i := 0; i < 6_000; i++ {
		k := int64(1_000 + i) // matches nothing
		if i < 2*hot && i%2 == 1 {
			k = 7 // ten rows of the first chunk share the one key d holds
		}
		p.AppendRow(table.Row{table.NewInt(k)})
	}
	d := table.New("d", table.Schema{{Name: "id", Kind: table.KindInt}})
	for i := 0; i < fan; i++ {
		d.AppendRow(table.Row{table.NewInt(7)})
	}
	db := table.NewDatabase()
	db.Add(p)
	db.Add(d)
	for _, sql := range []string{
		"SELECT * FROM p JOIN d ON p.k = d.id",
		"SELECT p.k FROM p JOIN d ON p.k = d.id WHERE d.id > 0",
	} {
		stmt := sqlparse.MustParse(sql)
		for _, tc := range []struct {
			budget int
			trips  bool
		}{{hot * fan, false}, {hot*fan - 1, true}, {fan + 1, true}, {fan, true}, {hot*fan + 1, false}} {
			opts := Options{MaxIntermediateRows: tc.budget}
			n, err := CountContext(context.Background(), db, stmt, opts)
			res, rerr := ExecuteWith(db, stmt, opts)
			if tripped := errors.Is(err, ErrRowBudget); tripped != tc.trips || tripped != errors.Is(rerr, ErrRowBudget) || !tripped && (err != nil || rerr != nil) {
				t.Fatalf("%s, budget %d: count ends in %v, rows in %v; want a budget trip: %v", sql, tc.budget, err, rerr, tc.trips)
			}
			if !tc.trips && (n != hot*fan || res.Table.NumRows() != hot*fan) {
				t.Errorf("%s, budget %d: %d counted, %d rows, want %d", sql, tc.budget, n, res.Table.NumRows(), hot*fan)
			}
		}
	}

	// One chunk against room for one run and a row: the second hot key passes
	// it, and the eight after that are not copied.
	b, _, preds := bindSQL(t, db, "SELECT * FROM p JOIN d ON p.k = d.id")
	cur := &joinedBatch{n: p.NumRows(), cols: [][]int32{p.Columns().Identity(), nil}}
	m, err := newJoinMatcher(b, cur, d.Columns().Identity(), 1, joinKeyPairs(preds, 1), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := getProbeScratch(len(m.pairs))
	defer putProbeScratch(sc)
	if n, err := m.matches(0, guardInterval, sc, fan+1); err != nil || n != 2*fan || sc.n != n {
		t.Fatalf("a chunk with room for %d rows emitted %d (%d kept), %v; want it to stop at the second run, %d", fan+1, n, sc.n, err, 2*fan)
	}
}

// countdownPolls is a context that expires after Err has answered nil left
// times, and counts the answers.
type countdownPolls struct {
	context.Context
	left, asked *atomic.Int64
}

func (c countdownPolls) Err() error {
	c.asked.Add(1)
	if c.left.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestProbeDeadlineMidway: a probe polls the guard per chunk for the rows it
// emitted, so a deadline that expires at the k-th poll of the statement stops
// it with the same error for every k the statement polls, and one past the last
// stops none.
func TestProbeDeadlineMidway(t *testing.T) {
	db := lowCardJoinDB(3*guardInterval + 100)
	for _, sql := range []string{
		"SELECT a.id, b.v FROM a JOIN b ON a.id = b.id",                   // one row per key
		"SELECT a.id, b.v FROM a JOIN b ON a.x = b.x WHERE b.y < 3",       // runs behind a filter
		"SELECT a.id, b.v FROM a JOIN b ON a.x = b.x AND a.y = b.y",       // scanning past rows, then the candidates' index
		"SELECT a.id, b.v FROM a JOIN b ON a.cat = b.cat WHERE b.id < 40", // high fan-out chunks
	} {
		stmt := sqlparse.MustParse(sql)
		want, err := ExecuteWith(db, stmt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		run := func(polls int64) (*Result, error, int64) {
			var left, asked atomic.Int64
			left.Store(polls)
			res, err := ExecuteWithContext(countdownPolls{context.Background(), &left, &asked}, db, stmt, Options{})
			return res, err, asked.Load()
		}
		_, err, total := run(1 << 40)
		if err != nil || total < int64(want.Table.NumRows()/guardInterval) {
			t.Fatalf("%s: %v after %d polls for %d rows", sql, err, total, want.Table.NumRows())
		}
		for polls := int64(0); polls <= total; polls++ {
			res, err, _ := run(polls)
			switch expired := polls < total; {
			case expired && (!errors.Is(err, ErrDeadline) || err.Error() != "engine: query deadline exceeded: context deadline exceeded"):
				t.Fatalf("%s: a deadline at poll %d of %d ends in %v", sql, polls, total, err)
			case !expired && (err != nil || resultFingerprint(res) != resultFingerprint(want)):
				t.Fatalf("%s: a deadline past the last poll (%d) ends in %v, or another answer", sql, polls, err)
			}
		}
	}
}
